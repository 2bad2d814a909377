"""Thirteen family claims decided for a block of the claims sweep's pairs at once.

LEM-43, LEM-45, THM-UNION-WS, THM-40, THM-UNION-G, THM-12, NOTE-47, COR-42,
REM-9, OBS-39, OBS-46, NOTE-50 and THM-48 are inclusions, equalities and
closure properties of subset families.  Here they are bit-sliced over a
block of index pairs, as the pair kernels of ``axioms`` are over a list of
topologies (E. Biham, "A fast new DES implementation in software", FSE
1997): bit s of every int stands for the block's s-th pair.

``block_families`` reads ``axioms.sliced_tables`` once over the pairs'
first topologies and once over their second ones, and gives per subset the
slices of each family the claims read, by the tests that
``GbtSpace.__init__`` makes per space.  A kernel of ``KERNELS`` takes
those and returns the int of the block's positions where its claim fails.
A complement is written ``every ^ x``: on long ints ``every & ~x`` costs
far more.

The claims' per-space checkers stay the oracle and the witness writers:
the sweep runs a claim's checker at the lowest set bit of its kernel's int
alone, and a hit there that the checker does not confirm is an engine
fault.  Forms (1) to (3) of LEM-43 and LEM-45 are built from the closed
sets, the ∧-sets and the tables, apart from the λ-closed slices (form 4)
they are held to.  ``claims`` imports this module on its first sweep, so
``import gbtlab`` does not compile it.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations
from operator import and_, or_
from typing import NamedTuple

from .axioms import sliced_tables

# pairs per block; the benchmark's 4,000 seeded four-point pairs fit one
BLOCK = 4096

# (i, j): a side and the other, as indices of the (side 1, side 2) pairs below
SIDES = ((0, 1), (1, 0))


class Families(NamedTuple):
    """The subset families of a block of pairs, bit-sliced: entry a of a
    list has bit s set when subset a is in that family of the s-th pair.

    The fields from ``closure`` to ``lambda_closed`` hold (side 1, side 2).
    ``closure`` and ``wedge`` are the two ``sliced_tables``' operator tables
    (entry a * size + k: point k in the operator's value on a); ``g_closed``
    and ``lambda_closed`` of side i are wrt the other side.  ``every`` has
    one bit per pair.
    """

    size: int
    every: int
    closure: tuple[tuple[int, ...], tuple[int, ...]]
    wedge: tuple[tuple[int, ...], tuple[int, ...]]
    opens: tuple[tuple[int, ...], tuple[int, ...]]
    closed: tuple[tuple[int, ...], tuple[int, ...]]
    wedge_sets: tuple[list[int], list[int]]
    vee_sets: tuple[list[int], list[int]]
    g_closed: tuple[list[int], list[int]]
    lambda_closed: tuple[list[int], list[int]]
    pairwise_lambda_closed: list[int]
    wedge12_sets: list[int]


@lru_cache(maxsize=None)
def _points(n: int) -> tuple[tuple[int, ...], ...]:
    """Per subset mask, its points."""
    return tuple(tuple(k for k in range(n) if a >> k & 1) for a in range(1 << n))


def block_families(firsts, seconds) -> Families:
    """The families of the pairs (firsts[s], seconds[s]) of a nonempty
    block, from the ``sliced_tables`` t1 of ``firsts`` and t2 of ``seconds``.

    A subset a is in a family unless some point k outside a breaks it:
    g-closed on side 1 when cl1(a) ⊆ ∧2(a), λ-closed when cl1(a) ∩ ∧2(a) = a
    (side 2 alike), pairwise λ-closed when cl1 ∩ cl2 ∩ ∧1 ∩ ∧2 of a is a,
    a ∧12-set when ∧1(a) ∩ ∧2(a) = a and a ∧-set of side i when ∧i(a) = a.
    A set is closed where its complement is open, and a ∨-set where its
    complement is a ∧-set, since ∨(A) = X − ∧(X − A).
    """
    t1, t2 = sliced_tables(firsts), sliced_tables(seconds)
    n, every, full = t1.size, t1.every, (1 << t1.size) - 1
    cl1, cl2, w1, w2 = t1.closure, t2.closure, t1.wedge, t2.wedge
    points = _points(n)
    lists = g1, g2, l1, l2, pairwise, w12, ws1, ws2 = tuple([] for _ in range(8))
    for a in range(full + 1):
        bg1 = bg2 = bl1 = bl2 = bp = bw12 = bw1 = bw2 = 0
        for k in points[full ^ a]:
            x = a * n + k
            c1, c2, v1, v2 = cl1[x], cl2[x], w1[x], w2[x]
            bg1 |= c1 & (every ^ v2)
            bg2 |= c2 & (every ^ v1)
            bl1 |= c1 & v2
            bl2 |= c2 & v1
            bp |= c1 & c2 & v1 & v2
            bw12 |= v1 & v2
            bw1 |= v1
            bw2 |= v2
        for family, broken in zip(lists, (bg1, bg2, bl1, bl2, bp, bw12, bw1, bw2)):
            family.append(every ^ broken)
    return Families(
        n, every, (cl1, cl2), (w1, w2), (t1.opens, t2.opens), (t1.opens[::-1], t2.opens[::-1]),
        (ws1, ws2), (ws1[::-1], ws2[::-1]), (g1, g2), (l1, l2), pairwise, w12,
    )



@lru_cache(maxsize=None)
def _incomparable(n: int) -> tuple[tuple[int, int], ...]:
    """The subset pairs a < b of which neither contains the other."""
    return tuple((a, b) for a, b in combinations(range(1 << n), 2) if a & b not in (a, b))


@lru_cache(maxsize=None)
def _disjoint(n: int) -> tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]:
    """The pairs a < b of disjoint nonempty subsets, with the points of each."""
    points = _points(n)
    return tuple((a, b, points[a], points[b]) for a, b in combinations(range(1, 1 << n), 2) if not a & b)


@lru_cache(maxsize=None)
def _apart(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The pairs (a, c) of disjoint subsets with c nonempty, with c's points."""
    points = _points(n)
    return tuple((a, c, points[c]) for a in range(1 << n) for c in range(1, 1 << n) if not a & c)


@lru_cache(maxsize=None)
def _supersets(n: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Per subset a, each superset F of a with the points of F − a."""
    points = _points(n)
    return tuple(tuple((f, points[f ^ a]) for f in range(1 << n) if a & ~f == 0) for a in range(1 << n))


def _escapes(every: int, inner, outer) -> int:
    """The positions where some member of the family ``inner`` is not in ``outer``."""
    out = 0
    for x, y in zip(inner, outer):
        out |= x & (every ^ y)
    return out


def _meets(xs, ys) -> list[int]:
    """Per subset z, the OR over the subset pairs with x ∩ y = z of xs[x] & ys[y]:
    the family of the intersections of a member of xs and a member of ys."""
    out = [0] * len(xs)
    for x, cx in enumerate(xs):
        if cx:
            for y, cy in enumerate(ys):
                out[x & y] |= cx & cy
    return out


def _not_intersection_closed(f: Families, family) -> int:
    """The positions where X is not in the family or two members meet
    outside it: where the complements are not a generalized topology."""
    out = f.every ^ family[-1]
    for a, b in _incomparable(f.size):
        both = family[a] & family[b]
        if both:
            out |= both & (f.every ^ family[a & b])
    return out


def rem9(f: Families) -> int:
    """A closed set is g-closed; a g-closed set open on the other side is closed."""
    out = 0
    for i, j in SIDES:
        g, closed = f.g_closed[i], f.closed[i]
        out |= _escapes(f.every, closed, g) | _escapes(f.every, map(and_, g, f.opens[j]), closed)
    return out


def obs39(f: Families) -> int:
    """Closed sets and the other side's ∧-sets are λ-closed."""
    out = 0
    for i, j in SIDES:
        lam = f.lambda_closed[i]
        out |= _escapes(f.every, f.closed[i], lam) | _escapes(f.every, f.wedge_sets[j], lam)
    return out


def cor42(f: Families) -> int:
    """The λ-open sets wrt side i, the complements of its λ-closed sets,
    hold the i-opens and the other side's ∨-sets."""
    out = 0
    for i, j in SIDES:
        lambda_open = f.lambda_closed[i][::-1]
        out |= _escapes(f.every, f.opens[i], lambda_open) | _escapes(f.every, f.vee_sets[j], lambda_open)
    return out


def obs46(f: Families) -> int:
    """λ-closed on either side implies pairwise λ-closed."""
    return _escapes(f.every, map(or_, *f.lambda_closed), f.pairwise_lambda_closed)


def note50(f: Families) -> int:
    """A ∧12-set is pairwise λ-closed."""
    return _escapes(f.every, f.wedge12_sets, f.pairwise_lambda_closed)


def thm48(f: Families) -> int:
    """Closed is g-closed and λ-closed."""
    out = 0
    for i, _ in SIDES:
        for closed, g, lam in zip(f.closed[i], f.g_closed[i], f.lambda_closed[i]):
            out |= closed ^ (g & lam)
    return out


def thm40(f: Families) -> int:
    """The λ-open sets wrt each side form a generalized topology."""
    return _not_intersection_closed(f, f.lambda_closed[0]) | _not_intersection_closed(f, f.lambda_closed[1])


def note47(f: Families) -> int:
    """The pairwise λ-open sets form a generalized topology."""
    return _not_intersection_closed(f, f.pairwise_lambda_closed)


def thm_union_g(f: Families) -> int:
    """If every union of two closed sets is g-closed, so is every union of
    two g-closed sets.  Unions of nested sets are the larger set, so only
    a closed set itself and the incomparable pairs need asking."""
    every, out = f.every, 0
    for i, _ in SIDES:
        g, closed = f.g_closed[i], f.closed[i]
        unproven = _escapes(every, closed, g)
        escapes = 0
        for a, b in _incomparable(f.size):
            outside = every ^ g[a | b]
            unproven |= closed[a] & closed[b] & outside
            escapes |= g[a] & g[b] & outside
        out |= escapes & (every ^ unproven)
    return out


def thm_union_ws(f: Families) -> int:
    """The union of two g-open sets weakly separated in the other side's
    topology μj is g-open.  Sets apart in μj are disjoint, and a is apart
    from b where neither meets the other's μj-closure."""
    n, every, out = f.size, f.every, 0
    for i, j in SIDES:
        g_open, cl = f.g_closed[i][::-1], f.closure[j]
        for a, b, in_a, in_b in _disjoint(n):
            escape = g_open[a] & g_open[b] & (every ^ g_open[a | b])
            if escape:
                meets = 0
                for k in in_a:
                    meets |= cl[b * n + k]
                for k in in_b:
                    meets |= cl[a * n + k]
                out |= escape & (every ^ meets)
    return out


def thm12(f: Families) -> int:
    """No nonempty set closed on the other side lies in the closure gap
    cl_i(a) − a of a set a g-closed on side i."""
    n, out = f.size, 0
    for i, j in SIDES:
        g, cl, closed = f.g_closed[i], f.closure[i], f.closed[j]
        for a, c, in_c in _apart(n):
            inside = g[a] & closed[c]
            if inside:
                for k in in_c:
                    inside &= cl[a * n + k]
                out |= inside
    return out


def _closed_forms(f: Families, closed, wedges, cl, w, table) -> tuple[list[int], ...]:
    """The four forms of λ-closedness over the closed sets F and the ∧-sets
    L, with closure slices cl and wedge slices w, one slice list each
    (``gbt._closed_forms`` per space):

    (1) A = F ∩ L for some F and L,
    (2) A = F ∩ w(A) for some F ⊇ A: no point of F − A in w(A),
    (3) A = cl(A) ∩ L for some L ⊇ A: no point of L − A in cl(A),
    (4) the ``table`` slices.
    """
    n, every = f.size, f.every
    second, third = [], []
    for a, supersets in enumerate(_supersets(n)):
        in_second = in_third = 0
        for superset, extra in supersets:
            in_w = in_cl = 0
            for k in extra:
                in_w |= w[a * n + k]
                in_cl |= cl[a * n + k]
            in_second |= closed[superset] & (every ^ in_w)
            in_third |= wedges[superset] & (every ^ in_cl)
        second.append(in_second)
        third.append(in_third)
    return _meets(closed, wedges), second, third, table


def lambda_closed_forms(f: Families, i: int) -> tuple[list[int], ...]:
    """The λ-closed forms wrt the other side of side index i (LEM-43): the
    i-closed sets, the ∧j-sets, cl_i and ∧j."""
    j = 1 - i
    return _closed_forms(f, f.closed[i], f.wedge_sets[j], f.closure[i], f.wedge[j], f.lambda_closed[i])


def pairwise_lambda_closed_forms(f: Families) -> tuple[list[int], ...]:
    """The pairwise λ-closed forms (LEM-45): the intersections F1 ∩ F2 of
    closed sets, L1 ∩ L2 of ∧-sets, and the ANDed tables."""
    cl, w = list(map(and_, *f.closure)), list(map(and_, *f.wedge))
    return _closed_forms(f, _meets(*f.closed), _meets(*f.wedge_sets), cl, w, f.pairwise_lambda_closed)


def _forms_differ(forms) -> int:
    """The positions where the forms differ at some subset."""
    first, second, third, table = forms
    out = 0
    for a, t in enumerate(table):
        out |= first[a] ^ t | second[a] ^ t | third[a] ^ t
    return out


def lem43(f: Families) -> int:
    """The four forms of λ-closedness wrt the other side agree on each side."""
    return _forms_differ(lambda_closed_forms(f, 0)) | _forms_differ(lambda_closed_forms(f, 1))


def lem45(f: Families) -> int:
    """The four forms of pairwise λ-closedness agree."""
    return _forms_differ(pairwise_lambda_closed_forms(f))


# claim id -> kernel; the sweep runs the claims' checkers only where these fail
KERNELS = {
    "REM-9": rem9,
    "THM-12": thm12,
    "THM-UNION-G": thm_union_g,
    "THM-UNION-WS": thm_union_ws,
    "OBS-39": obs39,
    "THM-40": thm40,
    "COR-42": cor42,
    "LEM-43": lem43,
    "LEM-45": lem45,
    "OBS-46": obs46,
    "NOTE-47": note47,
    "THM-48": thm48,
    "NOTE-50": note50,
}


def first_failures(firsts, seconds, claim_ids, elapsed: dict[str, float]) -> dict[str, int]:
    """The place in the block of the first pair (firsts[s], seconds[s]) on
    which each claim of ``claim_ids`` fails, or -1 where it fails on none.
    ``elapsed`` gains each claim's kernel time and an equal share of the
    families' time."""
    if not claim_ids:
        return {}
    clock = time.perf_counter
    start = clock()
    families = block_families(firsts, seconds)
    share = (clock() - start) / len(claim_ids)
    places = {}
    for claim_id in claim_ids:
        start = clock()
        found = KERNELS[claim_id](families)
        elapsed[claim_id] += clock() - start + share
        places[claim_id] = (found & -found).bit_length() - 1
    return places
