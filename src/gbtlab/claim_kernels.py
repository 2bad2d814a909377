"""Every universal claim decided for a block of the claims sweep's pairs at once.

The claims are bit-sliced over a block of index pairs, as the pair kernels
of ``axioms`` are over a list of topologies (E. Biham, "A fast new DES
implementation in software", FSE 1997): bit s of every int stands for the
block's s-th pair.

A block's pairs come as two lists of family masks of opens, the pairs'
first sides and their second ones; the sweep picks them by index from
the enumeration's ``gt_families``, so it builds no topology object for a
block.  ``block_families`` reads the ``axioms.sliced_tables`` of each
list, and ``families`` gives per subset the slices of each family the
claims read, by the tests that ``GbtSpace.__init__`` makes per space.
``block_words`` gives each pair its verdict word from the same slices;
the census, the lattice and ``mine`` read the dense rows of
``mining.verdict_words`` instead.  A kernel of ``KERNELS`` takes the
families, words included, and returns the int of the block's positions
where its claim fails:

- thirteen family claims are inclusions, equalities and closure
  properties of the families;
- the rows of ``claims.IMPLICATION_ROWS`` but REM-16 read the words
  through ``axioms.break_table``;
- REM-16 and the other point-mask claims read the singleton slices and
  the words, and the T1/2 rules hold the singleton slices and the T1/2
  bit to the definitional T1/2;
- a second route reads other slices than the verdict bit it is held to:
  THM-15 the open and closed slices, not the T0 bit;
- LEM-7, REM-41 and REM-46's hull scans read one side's tables at a
  time, so a topology that fails them fails at each position that holds
  it, on either side, and the first of those is the hit.

A complement is written ``every ^ x``: on long ints ``every & ~x`` costs
far more.  ``first_failures`` gives a block's words and the first position
where each claim fails.  The claims' per-space checkers stay the oracle
and the witness writers: the sweep runs a claim's checker at that position
alone, and a hit there that the checker does not confirm is an engine
fault.  Forms (1) to (3) of LEM-43 and LEM-45 are built from the closed
sets, the ∧-sets and the tables, apart from the λ-closed slices (form 4)
they are held to.  ``claims`` imports this module on its first sweep, so
``import gbtlab`` does not compile it.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations, permutations
from operator import and_, or_
from typing import NamedTuple

from .axioms import AXIOM_BITS, _point_fields, break_table, chain_break, check_implication_chain, sliced_tables
from .claims import IMPLICATION_ROWS
from .gbt import GbtSpace
from .gt import GeneralizedTopology, sliced_meet_table
from .mining import _spread
from .sets import ground, members

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
    one bit per pair, and ``words`` holds each pair's verdict word.
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
    words: bytes = b""


@lru_cache(maxsize=None)
def _points(n: int) -> tuple[tuple[int, ...], ...]:
    """Per subset mask, its points."""
    return tuple(tuple(k for k in range(n) if a >> k & 1) for a in range(1 << n))


def block_families(size: int, firsts, seconds) -> Families:
    """The families of the pairs of a nonempty block of topologies on
    ``size`` points: the s-th pair's sides have the family masks of opens
    firsts[s] and seconds[s]."""
    return families(sliced_tables(size, firsts), sliced_tables(size, seconds))


def families(t1, t2) -> Families:
    """The families of a block's pairs, from the ``sliced_tables`` t1 of
    their first topologies and t2 of their second ones, with the pairs'
    ``block_words``.

    A subset a is in a family unless some point k outside a breaks it:
    g-closed on side 1 when cl1(a) ⊆ ∧2(a), λ-closed when cl1(a) ∩ ∧2(a) = a
    (side 2 alike), pairwise λ-closed when cl1 ∩ cl2 ∩ ∧1 ∩ ∧2 of a is a,
    a ∧12-set when ∧1(a) ∩ ∧2(a) = a and a ∧-set of side i when ∧i(a) = a.
    A set is closed where its complement is open, and a ∨-set where its
    complement is a ∧-set, since ∨(A) = X − ∧(X − A).
    """
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
    f = Families(
        n, every, (cl1, cl2), (w1, w2), (t1.opens, t2.opens), (t1.opens[::-1], t2.opens[::-1]),
        (ws1, ws2), (ws1[::-1], ws2[::-1]), (g1, g2), (l1, l2), pairwise, w12,
    )
    return f._replace(words=block_words(f))


def _singletons(f: Families) -> tuple[list[int], ...]:
    """Per point x, the slices where {x} is μ1-open, μ2-open, μ1-closed and μ2-closed."""
    ones = [1 << x for x in range(f.size)]
    return tuple([family[p] for p in ones] for family in (*f.opens, *f.closed))


def block_words(f: Families) -> bytes:
    """The verdict word of each pair of the block, bits as ``axioms.AXIOM_BITS``.

    With wi[x, y] for "y ∈ ∧i({x})" and ci[x, y] for "y ∈ cli({x})", a pair fails
    - T0 where w1 and w2 hold some point pair both ways: no open splits it;
    - T1 where, for some point pair, each labeling (x, y) has w1[x, y] or w2[y, x];
    - R0 where c2[x, y] but not w1[x, y], or c1[x, y] but not w2[x, y];
    - SYM where c1[y, x] but not c2[x, y], or c2[y, x] but not c1[x, y];
    - T1/2 where some singleton is neither μ1-open nor μ2-closed, or
      neither μ2-open nor μ1-closed;
    - T1/4 where some subset is not pairwise λ-closed;
    - LSYM where a pairwise λ-closed subset is not λ-closed on both sides.
    """
    n, every = f.size, f.every
    w1, w2 = (_point_fields(w, n) for w in f.wedge)
    c1, c2 = (_point_fields(c, n) for c in f.closure)
    t0 = t1 = r0 = sym = 0
    for x, y in combinations(range(n), 2):
        xy, yx = x * n + y, y * n + x
        t0 |= w1[xy] & w1[yx] & w2[xy] & w2[yx]
        t1 |= (w1[xy] | w2[yx]) & (w1[yx] | w2[xy])
    for x, y in permutations(range(n), 2):
        xy, yx = x * n + y, y * n + x
        r0 |= c2[xy] & (every ^ w1[xy]) | c1[xy] & (every ^ w2[xy])
        sym |= c1[yx] & (every ^ c2[xy]) | c2[yx] & (every ^ c1[xy])
    t_half = every
    for open1, open2, closed1, closed2 in zip(*_singletons(f)):
        t_half &= (open1 | closed2) & (open2 | closed1)
    quarter, lsym = every, 0
    for pairwise, l1, l2 in zip(f.pairwise_lambda_closed, *f.lambda_closed):
        quarter &= pairwise
        lsym |= pairwise & (every ^ l1 & l2)
    holds = {"T0": every ^ t0, "T1_4": quarter, "T1_2": t_half, "T1": every ^ t1,
        "R0": every ^ r0, "SYM": every ^ sym, "LSYM": every ^ lsym}
    count = every.bit_length()
    return sum(_spread(v, count) * AXIOM_BITS[name] for name, v in holds.items()).to_bytes(count, "little")


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _where(words: bytes, table: bytes) -> int:
    """The positions s where table[words[s]] is 1."""
    return int(words.translate(table).translate(_DIGITS)[::-1], 2)


@lru_cache(maxsize=None)
def _bit_table(bit: int) -> bytes:
    return bytes(bool(w & bit) for w in range(256))


def _holds(f: Families, axiom: str) -> int:
    """The positions whose word has the axiom."""
    return _where(f.words, _bit_table(AXIOM_BITS[axiom]))


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


# The kernels of the point-mask claims, the T1/2 rules, the second routes
# and the one-topology claims.  Those that read a verdict take its bit from
# the words (``_holds``); the rest of each reads what its checker reads.


def _all(every: int, slices) -> int:
    """The positions in every one of the slices."""
    for s in slices:
        every &= s
    return every


@lru_cache(maxsize=None)
def _splitting(n: int) -> tuple[tuple[int, ...], ...]:
    """Per point pair x < y, the subsets that hold exactly one of the two."""
    return tuple(tuple(a for a in range(1 << n) if (a >> x ^ a >> y) & 1) for x, y in combinations(range(n), 2))


def _unsplit(f: Families, family) -> int:
    """The positions where some point pair is split by no member of the family."""
    out = 0
    for splitting in _splitting(f.size):
        split = 0
        for a in splitting:
            split |= family[a]
        out |= f.every ^ split
    return out


def _kinds(f: Families) -> list[int]:
    """The sets of the four kinds: open or closed on either side."""
    return [o1 | o2 | c1 | c2 for o1, o2, c1, c2 in zip(*f.opens, *f.closed)]


def _t_half_by_definition(f: Families) -> int:
    """Every g-closed set is closed, on both sides."""
    return f.every ^ (_escapes(f.every, f.g_closed[0], f.closed[0]) | _escapes(f.every, f.g_closed[1], f.closed[1]))


def thm15(f: Families) -> int:
    """T0 iff each point pair is split by a set of the four kinds."""
    return _holds(f, "T0") ^ f.every ^ _unsplit(f, _kinds(f))


def rem16(f: Families) -> int:
    """Not T0, but T1 or T0 on one side alone (some open of it splits each pair)."""
    one_sided = (f.every ^ _unsplit(f, f.opens[0])) | (f.every ^ _unsplit(f, f.opens[1]))
    return (f.every ^ _holds(f, "T0")) & (_holds(f, "T1") | one_sided)


def thm18(f: Families) -> int:
    """T0, but for some point pair each closure of each point holds the other."""
    n, out = f.size, 0
    c1, c2 = (_point_fields(c, n) for c in f.closure)
    for x, y in combinations(range(n), 2):
        xy, yx = x * n + y, y * n + x
        out |= c1[yx] & c2[xy] & c1[xy] & c2[yx]
    return _holds(f, "T0") & out


def thm21(f: Families) -> int:
    """T1, but some singleton is closed on neither side."""
    _, _, closed1, closed2 = _singletons(f)
    return _holds(f, "T1") & (f.every ^ _all(f.every, map(or_, closed1, closed2)))


def note23(f: Families) -> int:
    """Every singleton closed on both sides, but not T1."""
    _, _, closed1, closed2 = _singletons(f)
    return _all(f.every, map(and_, closed1, closed2)) & (f.every ^ _holds(f, "T1"))


def thm28(f: Families) -> int:
    """The singleton rule, each {x} μ2-closed or μ1-open and μ1-closed or
    μ2-open, against the definitional T1/2."""
    rule = _all(f.every, ((c2 | o1) & (c1 | o2) for o1, o2, c1, c2 in zip(*_singletons(f))))
    return rule ^ _t_half_by_definition(f)


def cor29(f: Families) -> int:
    """The contrapositive rule, no {x} both not μ1-open and not μ2-closed nor
    both not μ2-open and not μ1-closed, against the definitional T1/2."""
    every, broken = f.every, 0
    for o1, o2, c1, c2 in zip(*_singletons(f)):
        broken |= (every ^ o1) & (every ^ c2) | (every ^ o2) & (every ^ c1)
    return every ^ broken ^ _t_half_by_definition(f)


def thm30(f: Families) -> int:
    """Per side i: every singleton i-open or closed on the other side iff
    every g-closed set of side i is closed."""
    singles, out = _singletons(f), 0
    for i, j in SIDES:
        rule = _all(f.every, map(or_, singles[i], singles[2 + j]))
        out |= rule ^ f.every ^ _escapes(f.every, f.g_closed[i], f.closed[i])
    return out


def rem32(f: Families) -> int:
    """The T1/2 bit against the definitional T1/2 (REM-32 and THM-33-CROSS)."""
    return _holds(f, "T1_2") ^ _t_half_by_definition(f)


def thm33_literal(f: Families) -> int:
    """Each singleton open or closed within one topology, on both, against
    the definitional T1/2."""
    literal = _all(f.every, ((o1 | c1) & (o2 | c2) for o1, o2, c1, c2 in zip(*_singletons(f))))
    return literal ^ _t_half_by_definition(f)


def thm34(f: Families) -> int:
    """T1/2, but some singleton is of none of the four kinds."""
    kinds = (o1 | o2 | c1 | c2 for o1, o2, c1, c2 in zip(*_singletons(f)))
    return _holds(f, "T1_2") & (f.every ^ _all(f.every, kinds))


def thm51(f: Families) -> int:
    """T1, but some subset is not a ∧12-set."""
    return _holds(f, "T1") & (f.every ^ _all(f.every, f.wedge12_sets))


def thm58(f: Families) -> int:
    """T0 iff every singleton is pairwise λ-closed."""
    singletons = (f.pairwise_lambda_closed[1 << x] for x in range(f.size))
    return _holds(f, "T0") ^ _all(f.every, singletons)


def fraction_equivalence(f: Families) -> int:
    """The T1/4 bit against four-kind separation (THM-56, THM-60, THM-62):
    every subset is the intersection of the sets of the four kinds that
    hold it, its hull, read from the superset DP of ``gt.meet_table`` on slices."""
    n, full = f.size, (1 << f.size) - 1
    hull, points, beyond = sliced_meet_table(_kinds(f), n, f.every), _points(n), 0
    for a in range(full):
        for k in points[full ^ a]:
            beyond |= hull[a * n + k]
    return _holds(f, "T1_4") ^ f.every ^ beyond


def _unfixed_wedges(f: Families, i: int) -> int:
    """The positions where ∧i(a) is not a ∧i-set for some a, read where
    ∧i(a) ⊇ a: ∧i(a) is the superset b of a that holds exactly b's points
    outside a."""
    n, every, full, out = f.size, f.every, (1 << f.size) - 1, 0
    w, fixed, points = f.wedge[i], f.wedge_sets[i], _points(n)
    for a, supersets in enumerate(_supersets(n)):
        for b, _ in supersets:
            equal = every ^ fixed[b]
            for k in points[full ^ a]:
                if not equal:
                    break
                equal &= w[a * n + k] if b >> k & 1 else every ^ w[a * n + k]
            out |= equal
    return out


def note10(f: Families) -> int:
    """The wedge of every set is a wedge-set, and on the other side's
    wedge-sets g-closed is closed."""
    out = 0
    for i, j in SIDES:
        out |= _unfixed_wedges(f, j)
        for g, closed, fixed in zip(f.g_closed[i], f.closed[i], f.wedge_sets[j]):
            out |= (g ^ closed) & fixed
    return out


def lem7(f: Families) -> int:
    """Per side, ∧ holds no point of ∅ and is idempotent and monotone; it
    holds its argument by construction (``gt.sliced_meet_table`` never
    writes the entries of a's points).  ∨(A) = X − ∧(X − A) on the same
    slices, so ∨'s four properties are these."""
    n, every, out = f.size, f.every, 0
    full, points = (1 << n) - 1, _points(n)
    for i, _ in SIDES:
        w = f.wedge[i]
        for k in range(n):
            out |= w[k]
        for a in range(full + 1):
            for x in points[full ^ a]:
                b = a | 1 << x
                for k in range(n):
                    out |= w[a * n + k] & (every ^ w[b * n + k])
        out |= _unfixed_wedges(f, i)
    return out


def rem41(f: Families) -> int:
    """The ∨-sets of each side form a generalized topology: their
    complements, the ∧-sets, hold X and are closed under intersections."""
    return _not_intersection_closed(f, f.wedge_sets[0]) | _not_intersection_closed(f, f.wedge_sets[1])


def rem46(f: Families) -> int:
    """Per side, cl(a) and ∧(a) are the intersections of the closed and of
    the open supersets of a; and a is λ-closed iff cl_i(a) ∩ ∧j(a) = a."""
    n, every, full, out = f.size, f.every, (1 << f.size) - 1, 0
    points = _points(n)
    for i, j in SIDES:
        for table, members in ((f.closure[i], f.closed[i]), (f.wedge[i], f.opens[i])):
            for a, supersets in enumerate(_supersets(n)):
                missed = [0] * n
                for b, _ in supersets:
                    for k in points[full ^ b]:
                        missed[k] |= members[b]
                for k in range(n):
                    out |= every ^ table[a * n + k] ^ missed[k]
        cl, w = f.closure[i], f.wedge[j]
        for a, lam in enumerate(f.lambda_closed[i]):
            exact = every
            for k in range(n):
                both = cl[a * n + k] & w[a * n + k]
                exact &= both if a >> k & 1 else every ^ both
            out |= exact ^ lam
    return out


def _row(links):
    """A verdict row's kernel: the positions whose word breaks one of its links."""
    table = break_table(links)
    return lambda f: _where(f.words, table)


# claim id -> kernel, for every universal claim; the sweep runs a claim's
# checker only where its kernel fails
KERNELS = {
    "LEM-7": lem7,
    "REM-9": rem9,
    "NOTE-10": note10,
    "THM-12": thm12,
    "THM-UNION-G": thm_union_g,
    "THM-UNION-WS": thm_union_ws,
    "THM-15": thm15,
    "REM-16": rem16,
    "THM-18": thm18,
    "THM-21": thm21,
    "NOTE-23": note23,
    "THM-28": thm28,
    "COR-29": cor29,
    "THM-30": thm30,
    "REM-32": rem32,
    "THM-33-LITERAL": thm33_literal,
    "THM-33-CROSS": rem32,
    "THM-34": thm34,
    "OBS-39": obs39,
    "THM-40": thm40,
    "REM-41": rem41,
    "COR-42": cor42,
    "LEM-43": lem43,
    "LEM-45": lem45,
    "REM-46": rem46,
    "OBS-46": obs46,
    "NOTE-47": note47,
    "THM-48": thm48,
    "NOTE-50": note50,
    "THM-51": thm51,
    "THM-56": fraction_equivalence,
    "THM-58": thm58,
    "THM-60": fraction_equivalence,
    "THM-62": fraction_equivalence,
    **{claim_id: _row(links) for claim_id, (links, _) in IMPLICATION_ROWS.items() if claim_id != "REM-16"},
}


def first_failures(size: int, firsts, seconds, claim_ids, elapsed: dict[str, float]) -> tuple[bytes, dict[str, int]]:
    """The verdict words of a nonempty block's pairs, given as for
    ``block_families``, and the place in it of the first pair on which each
    claim of ``claim_ids`` fails, or -1 where it fails on none.

    The implication chain of ``axiom_profile`` is asserted on every
    distinct word; a word that breaks it raises, naming its first pair's
    space, whose topologies are built from their masks there alone.
    ``elapsed`` gains each claim's kernel time and an equal share of the
    time of the tables, the families and the words.
    """
    clock = time.perf_counter
    start = clock()
    f = block_families(size, firsts, seconds)
    for word in set(f.words):
        if chain_break(word):
            s, g = f.words.index(word), ground(size)
            sides = (GeneralizedTopology(g, tuple(members(family))) for family in (firsts[s], seconds[s]))
            check_implication_chain(word, GbtSpace(g, *sides))
    share = (clock() - start) / max(len(claim_ids), 1)
    places = {}
    for claim_id in claim_ids:
        start = clock()
        found = KERNELS[claim_id](f)
        elapsed[claim_id] += clock() - start + share
        places[claim_id] = (found & -found).bit_length() - 1
    return f.words, places
