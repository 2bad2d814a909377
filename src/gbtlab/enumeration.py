"""Exhaustive enumeration of generalized topologies and topology pairs.

A family over n points is encoded as a bitmask over the 2^n - 1 nonempty
subsets: mask m (1 ≤ m ≤ 2^n - 1) contributes bit m - 1, and ∅ is
implicit.  An encoding is thus the family mask without its ∅ bit,
``sets.family_of(masks) >> 1``.  Families are generated by a depth-first
scan deciding masks from the largest down, exclude branch first, so the
stream is strictly ascending in this encoding.  Union closure is checked
incrementally: when mask m is added, every union m | c with an
already-chosen c is a larger mask whose membership has been decided, so a
single pass over the chosen sets suffices.  The scan carries the family
mask it is building and reads that test from its bits; ``gt_families``
keeps each topology's mask, which the table passes slice and the
encodings shift, so none of them calls ``family_of`` per topology.

Isomorph rejection acts by simultaneous point permutations, optionally
extended by swapping the two topologies.  A pair (F1, F2) is canonical
when its encoding pair is lexicographically minimal over the group, that
is, when its index pair is the least of its orbit (McKay's orbit-minimum
form).  A pair's key, byte n and then both encodings, is written and read
here: ``canonical_index_key`` and ``index_pair_of_key``; the census log
spells it in hex from ``key_part_hexes``.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

from .gbt import GbtSpace
from .gt import GeneralizedTopology
from .sets import family_of, ground

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


def _opens_and_families(n: int):
    """All union-closed families over n points, ascending in encoding: per
    family its tuple of open masks, ascending with 0 first, and its family
    mask, which the scan builds bit by bit as it adds each mask."""
    full = (1 << n) - 1
    chosen: list[int] = []  # descending, the order in which the scan adds them

    def rec(m: int, family: int):
        if m == 0:
            yield (0, *reversed(chosen)), family
            return
        yield from rec(m - 1, family)
        for c in chosen:
            if not family >> (m | c) & 1:
                return  # m | c was left out, so m cannot join
        chosen.append(m)
        yield from rec(m - 1, family | 1 << m)
        chosen.pop()

    yield from rec(full, 1)


def iter_gt_mask_families(n: int):
    """All union-closed families over n points, ascending in encoding.

    Yields tuples of open masks in ascending mask order, 0 included.
    """
    for opens, _ in _opens_and_families(n):
        yield opens


@lru_cache(maxsize=None)
def _level(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The open masks and the family masks of every family on n points."""
    opens, families = zip(*_opens_and_families(n))
    return opens, families


def gt_mask_families(n: int) -> tuple[tuple[int, ...], ...]:
    return _level(n)[0]


def gt_families(n: int) -> tuple[int, ...]:
    """Per index on n points, the family mask of the opens,
    ``family_of(gts_on(n)[i].opens)``, as the enumeration made it."""
    return _level(n)[1]


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


def _byte_images(table, width: int) -> list[list[int]]:
    """Per byte of a family encoding, the encoding of each byte value's image
    under the mask map ``table``: bit k of byte b stands for mask 8b + k + 1."""
    images = []
    for b in range(width):
        lut = [0] * 256
        for value in range(1, 256):
            low = value & -value
            m = 8 * b + low.bit_length()
            lut[value] = lut[value ^ low] | (1 << (table[m] - 1) if m < len(table) else 0)
        images.append(lut)
    return images


@lru_cache(maxsize=None)
def _gt_index_permutations(n: int) -> tuple[tuple[int, ...], ...]:
    """gt_perm[p][i] = index of the image of family i under permutation p.

    A family's image encoding is the OR of its bytes' images, read from
    per-permutation lookup tables.
    """
    encodings = [family >> 1 for family in gt_families(n)]
    index_of = {enc: i for i, enc in enumerate(encodings)}
    width = key_width(n)
    byte_columns = [[enc >> 8 * b & 255 for enc in encodings] for b in range(width)]
    out = []
    for table in _perm_mask_tables(n):
        luts = _byte_images(table, width)
        images = map(luts[0].__getitem__, byte_columns[0])
        for lut, column in zip(luts[1:], byte_columns[1:]):
            images = map(operator.or_, images, map(lut.__getitem__, column))
        out.append(tuple(map(index_of.__getitem__, images)))
    return tuple(out)


def canonical_pair_encoding(f1, f2, n: int, symmetry: str = "perm+swap") -> tuple[int, int]:
    """Lexicographically minimal encoding pair over the symmetry group."""
    check_symmetry(symmetry)
    tables = _perm_mask_tables(n)
    images = [(family_of(t[m] for m in f1) >> 1, family_of(t[m] for m in f2) >> 1) for t in tables]
    if symmetry == "perm+swap":
        images += [(e2, e1) for e1, e2 in images]
    return min(images)


def key_width(n: int) -> int:
    """Bytes per family encoding in a canonical key on n points."""
    return ((1 << n) - 1 + 7) // 8


def canonical_key(s: GbtSpace, symmetry: str = "perm+swap") -> bytes:
    """Canonical byte-string key; equal keys iff isomorphic under the group.

    A permutation search, for arbitrary spaces; a pair that
    ``canonical_pair_indices`` yields has its key from ``canonical_index_key``.
    """
    n = s.ground.size
    e1, e2 = canonical_pair_encoding(s.mu1.opens, s.mu2.opens, n, symmetry)
    width = key_width(n)
    return bytes([n]) + e1.to_bytes(width, "big") + e2.to_bytes(width, "big")


@lru_cache(maxsize=None)
def _encoded_families(n: int) -> tuple[bytes, ...]:
    width = key_width(n)
    return tuple((family >> 1).to_bytes(width, "big") for family in gt_families(n))


def canonical_index_key(n: int, i: int, j: int) -> bytes:
    """The key of a canonical pair (i, j): its own encoding pair, since it is
    minimal in encoding order; ``canonical_key`` is the tests' oracle."""
    encoded = _encoded_families(n)
    return bytes([n]) + encoded[i] + encoded[j]


@lru_cache(maxsize=None)
def key_part_hexes(n: int) -> dict[str, int]:
    """The hex of each topology's part of a key on n points, to its index, in
    index order: a key's hex is that of byte n, then the parts of i and j."""
    return {encoded.hex(): i for i, encoded in enumerate(_encoded_families(n))}


def index_pair_of_key(key: bytes) -> tuple[int, int, int]:
    """The (n, i, j) whose ``canonical_index_key`` is ``key``, canonical or not;
    ValueError for bytes that are no key of two topologies on 1 to 4 points."""
    n = key[0] if key else 0
    width = key_width(n)
    indices = key_part_hexes(n) if 1 <= n <= 4 else {}
    i, j = (indices.get(key[start : start + width].hex()) for start in (1, 1 + width))
    if len(key) != 1 + 2 * width or i is None or j is None:
        raise ValueError(f"{key.hex()} is not the key of a pair of generalized topologies")
    return n, i, j


# "0" and "1" to the bytes 0 and 1, for ``bytes.translate`` of binary numerals
BIT_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _set_bits(mask: int, count: int):
    """The set bits of ``mask`` below ``count``, ascending."""
    digits = format(mask, f"0{count}b")[::-1].encode().translate(BIT_DIGITS)
    return itertools.compress(range(count), digits)


def canonical_pair_indices(n: int, symmetry: str = "perm+swap", among: int | None = None):
    """Index pairs (i, j) of canonical representatives, ascending; with
    ``among``, an int mask of indices, only the pairs of two indices in it.

    A pair is canonical when (i, j) is minimal over the group among the
    index pairs of its orbit; indices are in encoding order, so this
    agrees with canonical_pair_encoding, and ``canonical_index_key``
    needs no permutation search.  Only an i that is least in its orbit
    comes first, and a point permutation can undercut (i, j) only if it
    fixes i and sends j below j.  Each permutation p has the int mask of
    the j with p(j) < j; one row per first index i ORs these masks over
    i's stabilizer and yields the j whose bits stay clear, without
    building the full pair list.  Under perm+swap every j whose orbit
    starts below i is masked out, since its swapped image comes first
    (that covers each j < i), and a j in i's own orbit also needs no
    swapped image (p(j), p(i)) = (i, p(i)) below (i, j).  The tests hold
    these rows exhaustively against the scan over each pair's stabilizer.
    A first index outside ``among`` gets no row, and each row is cut to
    ``among``; the orbits of the skipped indices still enter ``earlier``,
    so the pairs are those of the full list with both indices in ``among``.
    """
    check_symmetry(symmetry)
    gt_perm = _gt_index_permutations(n)
    count = len(gt_perm[0])
    among = (1 << count) - 1 if among is None else among
    below = [sum(1 << j for j, image in enumerate(perm) if image < j) for perm in gt_perm[1:]]
    orbit_min = [min(images) for images in zip(*gt_perm)]
    swap = symmetry == "perm+swap"
    earlier = 0  # under perm+swap, the j whose orbit starts below i
    for i, least in enumerate(orbit_min):
        if least < i:
            continue
        orbit = {perm[i] for perm in gt_perm}
        excluded = earlier
        if swap:
            earlier |= sum(1 << j for j in orbit)
        if not among >> i & 1:
            continue
        for perm, mask in zip(gt_perm[1:], below):
            if perm[i] == i:
                excluded |= mask
        if swap:
            for j in orbit:
                if any(perm[j] == i and perm[i] < j for perm in gt_perm):
                    excluded |= 1 << j
        yield from zip(itertools.repeat(i), _set_bits(among & ~excluded, count))


def enumerate_gbt_pairs(n: int, symmetry: str = "perm+swap"):
    """One representative space per isomorphism class, deterministic order:
    the spaces of ``canonical_pair_indices``, a public convenience; the
    library's sweeps read the index pairs themselves."""
    gts = gts_on(n)
    g = gts[0].ground
    for i, j in canonical_pair_indices(n, symmetry):
        yield GbtSpace(g, gts[i], gts[j])


def _pair_orbit(n: int, i: int, j: int, symmetry: str) -> set[tuple[int, int]]:
    """The index pairs of the labeled pairs isomorphic to (i, j) under the group."""
    check_symmetry(symmetry)
    orbit = {(perm[i], perm[j]) for perm in _gt_index_permutations(n)}
    if symmetry == "perm+swap":
        orbit |= {(b, a) for a, b in orbit}
    return orbit


def pair_orbit_size(n: int, i: int, j: int, symmetry: str = "perm+swap") -> int:
    """Number of labeled pairs isomorphic to (i, j) under the group."""
    return len(_pair_orbit(n, i, j, symmetry))


def canonical_index_pair(n: int, i: int, j: int, symmetry: str = "perm+swap") -> tuple[int, int]:
    """The least index pair in the orbit of (i, j): the pair of its class that
    ``canonical_pair_indices`` yields, whose key is ``canonical_index_key``."""
    return min(_pair_orbit(n, i, j, symmetry))
