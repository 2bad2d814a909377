"""Exhaustive enumeration of generalized topologies and topology pairs.

A family over n points is encoded as a bitmask over the 2^n - 1 nonempty
subsets: mask m (1 ≤ m ≤ 2^n - 1) contributes bit m - 1, and ∅ is
implicit.  Families are generated by a depth-first scan deciding masks
from the largest down, exclude branch first, so the stream is strictly
ascending in this encoding.  Union closure is checked incrementally:
when mask m is added, every union m | c with an already-chosen c is a
larger mask whose membership has been decided, so a single pass over the
chosen sets suffices.

Isomorph rejection acts by simultaneous point permutations, optionally
extended by swapping the two topologies.  A pair (F1, F2) is canonical
when its encoding pair is lexicographically minimal over the group.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .gbt import GbtSpace
from .gt import GeneralizedTopology
from .sets import ground

SYMMETRIES = ("perm", "perm+swap")


def check_symmetry(symmetry: str) -> str:
    if symmetry not in SYMMETRIES:
        raise ValueError(f"symmetry must be one of {SYMMETRIES}, got {symmetry!r}")
    return symmetry


def check_size(n: int) -> int:
    """Refuse a sweep over all pairs on more than four points before it starts."""
    if n > 4:
        raise ValueError(
            f"n = {n} is out of reach: there are 1,385,552 generalized topologies "
            "on 5 points alone (OEIS A102896), so a sweep over their pairs cannot finish"
        )
    return n


def family_encoding(masks) -> int:
    """Integer encoding of a family of open masks (∅ contributes nothing)."""
    enc = 0
    for m in masks:
        if m:
            enc |= 1 << (m - 1)
    return enc


def family_from_encoding(enc: int, n: int) -> tuple[int, ...]:
    masks = [0]
    for m in range(1, 1 << n):
        if enc >> (m - 1) & 1:
            masks.append(m)
    return tuple(masks)


def iter_gt_mask_families(n: int):
    """All union-closed families over n points, ascending in encoding.

    Yields tuples of open masks in ascending mask order, 0 included.
    """
    full = (1 << n) - 1
    chosen: set[int] = set()

    def rec(m: int):
        if m == 0:
            yield (0, *sorted(chosen))
            return
        yield from rec(m - 1)
        if all(m | c in chosen for c in chosen):
            chosen.add(m)
            yield from rec(m - 1)
            chosen.remove(m)

    yield from rec(full)


@lru_cache(maxsize=None)
def gt_mask_families(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(iter_gt_mask_families(n))


@lru_cache(maxsize=None)
def gts_on(n: int) -> tuple[GeneralizedTopology, ...]:
    """Shared topology objects for all families on n points.

    Sharing matters: operator tables are cached per object, so a sweep
    over all pairs computes each table once.
    """
    g = ground(n)
    return tuple(GeneralizedTopology(g, masks) for masks in gt_mask_families(n))


def enumerate_gts(n: int):
    """Stream every generalized topology on n labeled points exactly once."""
    yield from gts_on(n)


@lru_cache(maxsize=None)
def _perm_mask_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """For each permutation of the points, the induced map on subset masks.

    Permutations are in lexicographic order, identity first.
    """
    tables = []
    for perm in itertools.permutations(range(n)):
        table = []
        for mask in range(1 << n):
            image = 0
            for i in range(n):
                if mask >> i & 1:
                    image |= 1 << perm[i]
            table.append(image)
        tables.append(tuple(table))
    return tuple(tables)


def permute_family(masks, table) -> tuple[int, ...]:
    return tuple(sorted(table[m] for m in masks))


@lru_cache(maxsize=None)
def _gt_index_permutations(n: int) -> tuple[tuple[int, ...], ...]:
    """gt_perm[p][i] = index of the image of family i under permutation p."""
    families = gt_mask_families(n)
    index_of = {family_encoding(f): i for i, f in enumerate(families)}
    out = []
    for table in _perm_mask_tables(n):
        out.append(
            tuple(index_of[family_encoding(permute_family(f, table))] for f in families)
        )
    return tuple(out)


def canonical_pair_encoding(f1, f2, n: int, symmetry: str = "perm+swap") -> tuple[int, int]:
    """Lexicographically minimal encoding pair over the symmetry group."""
    check_symmetry(symmetry)
    best = None
    for table in _perm_mask_tables(n):
        p1 = family_encoding(permute_family(f1, table))
        p2 = family_encoding(permute_family(f2, table))
        if best is None or (p1, p2) < best:
            best = (p1, p2)
        if symmetry == "perm+swap" and (p2, p1) < best:
            best = (p2, p1)
    return best


def canonical_key(s: GbtSpace, symmetry: str = "perm+swap") -> bytes:
    """Canonical byte-string key; equal keys iff isomorphic under the group."""
    n = s.ground.size
    e1, e2 = canonical_pair_encoding(s.mu1.opens, s.mu2.opens, n, symmetry)
    width = ((1 << n) - 1 + 7) // 8
    return bytes([n]) + e1.to_bytes(width, "big") + e2.to_bytes(width, "big")


def permute_space(s: GbtSpace, perm: tuple[int, ...]) -> GbtSpace:
    """Image of a space under a point permutation (same ground labels)."""
    n = s.ground.size
    table = _perm_mask_tables(n)[sorted(itertools.permutations(range(n))).index(perm)]
    mu1, mu2 = (GeneralizedTopology(s.ground, permute_family(t.opens, table)) for t in (s.mu1, s.mu2))
    return GbtSpace(s.ground, mu1, mu2)


def canonical_pair_indices(n: int, symmetry: str = "perm+swap"):
    """Index pairs (i, j) of canonical representatives, ascending.

    A pair is canonical when (i, j) is minimal over the group among the
    index pairs of its orbit; indices are in encoding order, so this
    agrees with canonical_pair_encoding.
    """
    check_symmetry(symmetry)
    gt_perm = _gt_index_permutations(n)
    count = len(gt_mask_families(n))
    all_perms = range(len(gt_perm))
    for i in range(count):
        if any(gt_perm[p][i] < i for p in all_perms):
            continue
        stab = [p for p in all_perms if gt_perm[p][i] == i]
        for j in range(count):
            if any(gt_perm[p][j] < j for p in stab):
                continue
            if symmetry == "perm+swap":
                swapped_min = min((gt_perm[p][j], gt_perm[p][i]) for p in all_perms)
                if swapped_min < (i, j):
                    continue
            yield i, j


def enumerate_gbt_pairs(n: int, symmetry: str = "perm+swap"):
    """One representative space per isomorphism class, deterministic order.

    The one place that turns canonical index pairs into spaces; sweeps over
    several sizes chain it over their levels.
    """
    gts = gts_on(n)
    g = gts[0].ground
    for i, j in canonical_pair_indices(n, symmetry):
        yield GbtSpace(g, gts[i], gts[j])


def pair_orbit_size(n: int, i: int, j: int, symmetry: str = "perm+swap") -> int:
    """Number of labeled pairs isomorphic to (i, j) under the group."""
    check_symmetry(symmetry)
    gt_perm = _gt_index_permutations(n)
    images = {(gt_perm[p][i], gt_perm[p][j]) for p in range(len(gt_perm))}
    if symmetry == "perm+swap":
        images |= {(gt_perm[p][j], gt_perm[p][i]) for p in range(len(gt_perm))}
    return len(images)
