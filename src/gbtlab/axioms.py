"""Deciders for the nine pairwise axioms and the assembled profile.

Point-pair axioms (T0, T1) are decided over unordered pairs: the pair may
be labeled either way before applying the two-sided separation condition.
The ordered reading would misclassify standard witnesses (a space with
mu1 = {∅,{a}}, mu2 = {∅,{b}} on three points must come out T0), and the
unordered reading is the one that agrees with the singleton
characterizations below.

On a finite carrier the "finite subset", "countable subset" and "any
subset" separation grades coincide, so T1/4, T3/8 and T5/8 share one
canonical decision procedure: every subset is pairwise λ-closed.  The
quantifier-shaped definitional algorithms are kept as cross-validation
oracles, as are the alternative characterizations of T0 and T1/2; a
disagreement between routes raises InternalDisagreementError, which the
CLI maps to exit code 3.

The second routes take the space and read its family masks (``gbt``):
T0 when every singleton is pairwise λ-closed, T1/2 when each side's
g-closed family lies inside its closed one.  Sweeps read the pair kernels
below; the deciders decide one space, and ``mine``'s hits again through
``evaluate_axiom(name, t1, t2)`` with no space at hand, so they keep
``(t1, t2)`` and their own scans: reading masks there slowed hit-heavy queries.

Each axiom is one row of ``AXIOMS``; the names, aliases, decider and kernel
tables and the profile's fields are read from it.  The sweeps' verdict
words (one bit per distinct kernel), the tables of the words that break
implication links, and the chain check on the words close the module.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from functools import lru_cache, reduce
from operator import and_, or_
from typing import NamedTuple

from .gbt import GbtSpace
from .gt import GeneralizedTopology, meet_table, sliced_meet_table
from .records import FrozenRecord


class UnknownAxiomError(ValueError):
    """Axiom name not among the nine deciders."""


class InternalDisagreementError(RuntimeError):
    """Two decision routes for the same axiom disagree: an engine bug."""


# Each low-level decider takes the two topologies and returns
# (verdict, witness); the witness is a short rendering of the first
# falsifying configuration in scan order, or None when the axiom holds.


def decide_t0(t1: GeneralizedTopology, t2: GeneralizedTopology) -> tuple[bool, str | None]:
    n = t1.ground.size
    for x, y in itertools.combinations(range(n), 2):
        p, q = 1 << x, 1 << y
        if any(bool(u & p) != bool(u & q) for u in t1.opens):
            continue
        if any(bool(v & p) != bool(v & q) for v in t2.opens):
            continue
        return False, f"pair ({t1.ground.names[x]},{t1.ground.names[y]})"
    return True, None


def t0_by_one_point_sets(s: GbtSpace) -> bool:
    """T0 via sets that are open on one side or closed on the other."""
    t1, t2 = s.mu1, s.mu2
    kinds = set(t1.opens) | set(t2.opens) | set(t1.closed_masks) | set(t2.closed_masks)
    n = t1.ground.size
    for x, y in itertools.combinations(range(n), 2):
        p, q = 1 << x, 1 << y
        if not any(bool(k & p) != bool(k & q) for k in kinds):
            return False
    return True


def t0_by_singletons(s: GbtSpace) -> bool:
    """T0 via pairwise λ-closedness of every singleton (THM-58)."""
    singletons = s.ground.singletons
    return s.pairwise_lambda_closed & singletons == singletons


def decide_t1(t1: GeneralizedTopology, t2: GeneralizedTopology) -> tuple[bool, str | None]:
    n = t1.ground.size
    for x, y in itertools.combinations(range(n), 2):
        p, q = 1 << x, 1 << y
        for a, b in ((p, q), (q, p)):
            if any(u & a and not u & b for u in t1.opens) and any(
                v & b and not v & a for v in t2.opens
            ):
                break
        else:
            return False, f"pair ({t1.ground.names[x]},{t1.ground.names[y]})"
    return True, None


def decide_r0(t1: GeneralizedTopology, t2: GeneralizedTopology) -> tuple[bool, str | None]:
    n = t1.ground.size
    for i, (ta, tb) in ((1, (t1, t2)), (2, (t2, t1))):
        for g_mask in ta.opens:
            for x in range(n):
                p = 1 << x
                if g_mask & p and tb.closure_table[p] & ~g_mask:
                    return False, (
                        f"mu{i}-open {ta.ground.label(g_mask)} contains {ta.ground.names[x]} "
                        f"but not its mu{3 - i}-closure {ta.ground.label(tb.closure_table[p])}"
                    )
    return True, None


def decide_symmetric(t1: GeneralizedTopology, t2: GeneralizedTopology) -> tuple[bool, str | None]:
    n = t1.ground.size
    names = t1.ground.names
    for i, (ta, tb) in ((1, (t1, t2)), (2, (t2, t1))):
        for y in range(n):
            cl_y = ta.closure_table[1 << y]
            for x in range(n):
                if x != y and cl_y >> x & 1 and not tb.closure_table[1 << x] >> y & 1:
                    return False, (
                        f"{names[x]} in mu{i}-closure of {{{names[y]}}} but "
                        f"{names[y]} not in mu{3 - i}-closure of {{{names[x]}}}"
                    )
    return True, None


def decide_t_half(t1: GeneralizedTopology, t2: GeneralizedTopology) -> tuple[bool, str | None]:
    """Singleton rule: each {x} is (mu1-open or mu2-closed) and (mu2-open or mu1-closed).
    The witness names the least failing point and the first rule it fails."""
    first = t1.open_points | t2.closed_points
    failing = t1.ground.full_mask & ~(first & (t2.open_points | t1.closed_points))
    if not failing:
        return True, None
    x = (failing & -failing).bit_length() - 1
    rule = "mu2-open nor mu1-closed" if first >> x & 1 else "mu1-open nor mu2-closed"
    return False, f"singleton {{{t1.ground.names[x]}}} neither {rule}"


def t_half_by_definition(s: GbtSpace) -> bool:
    """Every g-closed set wrt the other side is closed, on both sides."""
    return not (s.g_closed[1] & ~s.mu1.closed_family or s.g_closed[2] & ~s.mu2.closed_family)


def decide_all_lambda(t1: GeneralizedTopology, t2: GeneralizedTopology) -> tuple[bool, str | None]:
    """Every subset pairwise λ-closed: the shared T1/4 = T3/8 = T5/8 decider."""
    cl1, cl2, w1, w2 = t1.closure_table, t2.closure_table, t1.wedge_table, t2.wedge_table
    for a in range(t1.ground.full_mask + 1):
        if cl1[a] & cl2[a] & w1[a] & w2[a] != a:
            return False, f"subset {t1.ground.label(a)} is not pairwise λ-closed"
    return True, None


def t_fraction_by_definition(s: GbtSpace) -> bool:
    """Separation of every subset from every outside point by one of the four
    kinds of set (open or closed on either side).  On a finite carrier this is
    the definitional algorithm for T1/4, T3/8 and T5/8 alike.  The kinds
    containing P meet in their hull, and a point outside P is separated from
    P exactly when it lies outside the hull; the hulls of all P come from
    one superset DP (``gt.meet_table``)."""
    t1, t2 = s.mu1, s.mu2
    kinds = t1.open_family | t2.open_family | t1.closed_family | t2.closed_family
    return all(hull == p for p, hull in enumerate(meet_table(kinds, t1.ground.size)))


def decide_lambda_symmetric(t1: GeneralizedTopology, t2: GeneralizedTopology) -> tuple[bool, str | None]:
    cl1, cl2, w1, w2 = t1.closure_table, t2.closure_table, t1.wedge_table, t2.wedge_table
    for a in range(t1.ground.full_mask + 1):
        if cl1[a] & cl2[a] & w1[a] & w2[a] != a:
            continue
        if cl1[a] & w2[a] != a or cl2[a] & w1[a] != a:
            return False, f"{t1.ground.label(a)} pairwise λ-closed but not λ-closed on both sides"
    return True, None


# Pair kernel.  Mining decides millions of pairs drawn from one list of
# topologies, so every axiom also has a packed form: a few integers per
# topology (its signature), each recording what a pair must not have in
# common.  Bit fields are n bits wide; field k of a packing belongs to
# subset mask k or to point k, and T1 ends its fields with one more bit.
#
# A column holds the signatures of the list bit-sliced: per signature
# component, slice k is the int whose bit p is set when topology p's
# component has bit k.  The slices come first, for the whole list at once:
# ``sliced_tables`` slices the family masks of the topologies' opens, then
# runs one ``gt.sliced_meet_table`` pass for the closure and one for the
# wedge over every topology together, and each kernel
# combines those table slices (T1/2 reads the open slices); no table of
# a single topology is built.  The signatures are the slices transposed.
# A row (first topology fixed) is then one int whose bit p is the verdict
# on the pair (first, topology p): the complement of the positions whose
# signatures meet the first's, and those are the OR of the slices named by
# the set bits of the first's signature (``_meet``).  Three row rules serve
# the seven kernels: disjoint, crossed-disjoint, and LSYM's rule per field.
# Signatures are sparse, so a row costs a few big-int ORs, not one step
# per pair.  The deciders above are the kernels' oracles: mining decides
# every hit it reads again with them, and the tests hold each column to
# the one built from per-topology signatures.


def _sliced(values, width: int) -> tuple[int, ...]:
    """Slice k of ``values``: bit p set when values[p] has bit k.

    The values are written out as one string of ``width``-digit binary
    numerals, last value first; every width-th digit of it, from the one
    of bit k on, is slice k's binary numeral.  Slicing the slices, with
    the number of values as the width, gives the values back.
    """
    digits = "".join([format(v, f"0{width}b") for v in reversed(values)])
    return tuple(int(digits[width - 1 - k :: width], 2) for k in range(width))


def _meet(slices: tuple[int, ...], x: int) -> int:
    """The positions whose component meets x: the OR of the slices of x's bits."""
    out = 0
    while x:
        low = x & -x
        out |= slices[low.bit_length() - 1]
        x ^= low
    return out


class SlicedTables(NamedTuple):
    """The operator tables of a list of topologies on ``size`` points,
    bit-sliced: bit p of every int belongs to topology p.

    ``opens[a]`` holds where subset a is open; ``closure[a * size + k]``
    and ``wedge[a * size + k]`` where point k lies in cl(a) and in ∧(a).
    ``every`` has one bit per topology.
    """

    size: int
    every: int
    opens: tuple[int, ...]
    closure: tuple[int, ...]
    wedge: tuple[int, ...]


def sliced_tables(size: int, families) -> SlicedTables:
    """The sliced tables of a nonempty sequence of topologies on ``size``
    points, given by the family masks of their opens: the enumeration's
    ``gt_families`` picked by index, or ``family_of(t.opens)`` of a
    topology at hand.  Subset a is closed where X − a is open, so the
    closed slices are the open ones in reverse order."""
    every = (1 << len(families)) - 1
    opens = _sliced(families, 1 << size)
    closure = sliced_meet_table(opens[::-1], size, every)
    return SlicedTables(size, every, opens, closure, sliced_meet_table(opens, size, every))


class KernelColumn(NamedTuple):
    """The signatures of a list of topologies, bit-sliced.

    ``slices`` holds, per signature component, one slice per bit (as many
    as the widest component has bits, at least one); ``every`` has one bit
    per position, and ``size`` is the topologies' number of points, the
    width of a field.
    """

    signatures: tuple[tuple[int, ...], ...]
    slices: tuple[tuple[int, ...], ...]
    every: int
    size: int


def _excess(table, n: int) -> list[int]:
    """Field a, bit k: k lies in entry a * n + k of the table but not in a."""
    cells = itertools.product(range(1 << n), range(n))
    return [0 if a >> k & 1 else v for (a, k), v in zip(cells, table)]


def _point_fields(table, n: int) -> list[int]:
    """Field x, bit k: k lies in the table's entry of {x}."""
    return [v for x in range(n) for v in table[n << x : (n << x) + n]]


def _transposed(fields: list[int], n: int) -> list[int]:
    """Swap the roles of field and bit: bit y of field x becomes bit x of field y."""
    return [fields[y * n + x] for x in range(n) for y in range(n)]


def _off_diagonal(fields: list[int], n: int) -> list[int]:
    """The fields with bit x of field x cleared."""
    return [0 if k % (n + 1) == 0 else v for k, v in enumerate(fields)]


def _lambda_slices(t: SlicedTables) -> tuple[list[int]]:
    """Per subset a: cl(a) ∩ ∧(a) minus a.  A pair is T1/4 iff these are disjoint."""
    return (_excess(map(and_, t.closure, t.wedge), t.size),)


def _t0_slices(t: SlicedTables) -> tuple[list[int]]:
    """One bit per unordered point pair that no open splits, which is when
    each point lies in the ∧ of the other.  T0 iff disjoint."""
    w, n = _point_fields(t.wedge, t.size), t.size
    return ([w[x * n + y] & w[y * n + x] for x, y in itertools.combinations(range(n), 2)],)


def _disjoint_row(column: KernelColumn, p: int) -> int:
    """Holds iff p1 ∩ p2 is empty (T0, and T1/4 to T5/8)."""
    return column.every & ~_meet(column.slices[0], p)


def _t1_slices(t: SlicedTables) -> tuple[list[int], list[int]]:
    """Bit y of field x (x != y): no open contains x but not y, which is
    when y lies in ∧({x}); then one more bit.  In the first component it
    flags a topology that on its own leaves some pair unsplit both ways (it
    fails ``gt.is_gt_T0``), in the second it is always set.  A point pair
    is left unseparated under both labelings exactly when one topology is
    flagged or the two fields share a bit, so T1 is the crossed rule."""
    missing = _off_diagonal(_point_fields(t.wedge, t.size), t.size)
    return missing + [reduce(or_, _t0_slices(t)[0], 0)], missing + [t.every]


def _t_half_slices(t: SlicedTables) -> tuple[list[int], list[int]]:
    """Points whose singleton is not open, and points whose singleton is not closed."""
    full, points = (1 << t.size) - 1, [1 << x for x in range(t.size)]
    return (
        [t.every ^ t.opens[p] for p in points],
        [t.every ^ t.opens[full ^ p] for p in points],
    )


def _r0_slices(t: SlicedTables) -> tuple[list[int], list[int]]:
    """Per point x: cl({x}), and the complement of ∧({x})."""
    return (
        _point_fields(t.closure, t.size),
        [t.every ^ v for v in _point_fields(t.wedge, t.size)],
    )


def _symmetric_slices(t: SlicedTables) -> tuple[list[int], list[int]]:
    """Per point x: cl({x}), and the off-diagonal points y with x outside cl({y})."""
    c = _point_fields(t.closure, t.size)
    return c, _off_diagonal([t.every ^ v for v in _transposed(c, t.size)], t.size)


def _crossed_disjoint_row(column: KernelColumn, p: int, q: int) -> int:
    """Holds iff p1 ∩ q2 and p2 ∩ q1 are both empty (T1/2, T1, R0 and SYM)."""
    ps, qs = column.slices
    return column.every & ~(_meet(qs, p) | _meet(ps, q))


def _lambda_symmetric_slices(t: SlicedTables) -> tuple[list[int], ...]:
    """Per subset a: cl(a) ∩ ∧(a), cl(a) and ∧(a), each minus a."""
    return tuple(_excess(table, t.size) for table in (map(and_, t.closure, t.wedge), t.closure, t.wedge))


def _lambda_symmetric_row(column: KernelColumn, lam: int, clx: int, wx: int) -> int:
    """A subset that is pairwise λ-closed (its field of lam1 ∩ lam2 is empty)
    must be λ-closed on both sides (its field of cl1 ∩ w2 ∪ cl2 ∩ w1 is empty).
    Per field of ``column.size`` bits, the positions where the first is not
    empty must be those where the second is not."""
    lams, clxs, wxs = column.slices
    n, fails = column.size, 0
    field = (1 << n) - 1
    for _ in range(1 << n):
        c, w = clx & field, wx & field
        if c | w:
            fails |= _meet(lams, lam & field) ^ (_meet(wxs, c) | _meet(clxs, w))
        field <<= n
    return column.every & ~fails


class PairKernel(NamedTuple):
    """Bit-sliced decision of one axiom over pairs from a list of topologies.

    ``slices`` takes the list's ``sliced_tables`` and returns, per signature
    component, the slice of each bit a signature of that component may have.
    ``row`` takes a column and the signature of the pair's first topology
    and returns the int whose bit p is the verdict on (first, topology p).
    """

    slices: Callable[[SlicedTables], tuple[list[int], ...]]
    row: Callable[..., int]

    def column(self, tables: SlicedTables) -> KernelColumn:
        """The slices cut to the widest signature (at least one bit), and
        the signatures read back from them."""
        components = self.slices(tables)
        width = max([1, *(k + 1 for c in components for k, s in enumerate(c) if s)])
        slices = tuple(tuple(c[:width]) + (0,) * (width - len(c)) for c in components)
        count = tables.every.bit_length()
        signatures = tuple(zip(*(_sliced(c, count) for c in slices)))
        return KernelColumn(signatures, slices, tables.every, tables.size)

    def verdicts(self, column: KernelColumn, i: int) -> int:
        """The row of position i: bit p is the verdict on the pair (i, p)."""
        return self.row(column, *column.signatures[i])


class Axiom(NamedTuple):
    """One axiom's row of ``AXIOMS``: its ``AxiomProfile`` field, its decider
    (one space) and pair kernel (the pairs of a list of topologies), the
    second routes that a cross-validated ``axiom_profile`` holds the
    decider's verdict to (each takes the space), and the names it answers
    to besides its lower-case name written with ``_`` or ``/``."""

    field: str
    decide: Callable[[GeneralizedTopology, GeneralizedTopology], tuple[bool, str | None]]
    kernel: PairKernel
    routes: tuple[Callable[[GbtSpace], bool], ...] = ()
    aliases: tuple[str, ...] = ()


# T1/4, T3/8 and T5/8 share one decider, kernel and route, so one verdict-word bit.
_FRACTION = (decide_all_lambda, PairKernel(_lambda_slices, _disjoint_row), (t_fraction_by_definition,))

# Every axiom, in the order of the profile's fields and of each table below.
AXIOMS = {
    "T0": Axiom("t0", decide_t0, PairKernel(_t0_slices, _disjoint_row), (t0_by_one_point_sets, t0_by_singletons)),
    "T1_4": Axiom("t_quarter", *_FRACTION),
    "T3_8": Axiom("t_3_8", *_FRACTION),
    "T5_8": Axiom("t_5_8", *_FRACTION),
    "T1_2": Axiom("t_half", decide_t_half, PairKernel(_t_half_slices, _crossed_disjoint_row),
        (t_half_by_definition,)),
    "T1": Axiom("t1", decide_t1, PairKernel(_t1_slices, _crossed_disjoint_row)),
    "R0": Axiom("r0", decide_r0, PairKernel(_r0_slices, _crossed_disjoint_row)),
    "SYM": Axiom("symmetric", decide_symmetric, PairKernel(_symmetric_slices, _crossed_disjoint_row),
        aliases=("symmetric",)),
    "LSYM": Axiom("lambda_symmetric", decide_lambda_symmetric, aliases=("lambda-symmetric", "lambda_symmetric"),
        kernel=PairKernel(_lambda_symmetric_slices, _lambda_symmetric_row)),
}
AXIOM_NAMES = tuple(AXIOMS)
DECIDERS = {name: row.decide for name, row in AXIOMS.items()}
PAIR_KERNELS = {name: row.kernel for name, row in AXIOMS.items()}
# the implication chain T1/2 ⟹ T5/8 ⟹ T3/8 ⟹ T1/4 ⟹ T0, strongest first
CHAIN = ("T1_2", "T5_8", "T3_8", "T1_4", "T0")
_ALIASES = {alias: name for name, row in AXIOMS.items()
    for alias in (name.lower(), name.lower().replace("_", "/"), *row.aliases)}


def normalize_axiom_name(name: str) -> str:
    try:
        return _ALIASES[name.lower()]
    except KeyError:
        raise UnknownAxiomError(f"unknown axiom {name!r}; known: {', '.join(AXIOM_NAMES)}") from None


class AxiomProfile(FrozenRecord):
    """Truth record of the nine pairwise axioms for one space.

    It takes the nine verdicts in the order of ``AXIOMS``, whose rows name
    its fields.  ``witnesses`` maps an axiom name to a short explanation of
    the first falsifying configuration found, for every axiom that is
    false; equality and hash read the nine verdicts alone.
    """

    _compared = tuple(row.field for row in AXIOMS.values())
    _fields = (*_compared, "witnesses")

    def __init__(self, *verdicts: bool, witnesses: dict[str, str] | None = None) -> None:
        if len(verdicts) != len(AXIOMS):
            raise TypeError(f"AxiomProfile takes {len(AXIOMS)} verdicts, got {len(verdicts)}")
        self._fill(*verdicts, {} if witnesses is None else witnesses)

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(AXIOM_NAMES, self._key(self)))


def evaluate_axiom(name: str, t1: GeneralizedTopology, t2: GeneralizedTopology) -> bool:
    """One axiom's verdict on one pair; ``mine`` decides each hit it reads again with it."""
    return DECIDERS[normalize_axiom_name(name)](t1, t2)[0]


# Verdict words.  The census, the lattice and mine decide pairs with every
# distinct pair kernel at once: bit k of a verdict word is kernel k's
# verdict; the claims sweep makes the same words from a block's slices
# (``claim_kernels.block_words``).  There are seven, so a word fits in a byte.
WORD_KERNELS = tuple(dict.fromkeys(PAIR_KERNELS.values()))
AXIOM_BITS = {name: 1 << WORD_KERNELS.index(kernel) for name, kernel in PAIR_KERNELS.items()}


def word_verdicts(word: int) -> dict[str, bool]:
    """The nine verdicts a verdict word holds, in the order of AXIOM_NAMES."""
    return {name: bool(word & bit) for name, bit in AXIOM_BITS.items()}


def profile_word(profile: AxiomProfile) -> int:
    """The verdict word of a profile, the inverse of ``word_verdicts``."""
    return sum({AXIOM_BITS[name] for name, ok in profile.as_dict().items() if ok})


@lru_cache(maxsize=None)
def break_table(links) -> bytes:
    """A table for ``bytes.translate`` whose byte w is 1 where verdict word w
    has every antecedent bit and lacks the consequent bit of one of the
    (antecedent names, consequent name) ``links``, a tuple, and 0 elsewhere."""
    masks = [(sum({AXIOM_BITS[a] for a in names}), AXIOM_BITS[consequent]) for names, consequent in links]
    return bytes(any(w & mask == mask and not w & bit for mask, bit in masks) for w in range(256))


def chain_links(names, *extra) -> tuple:
    """The links between consecutive ``names``, with ``extra`` in every antecedent."""
    return tuple(((a, *extra), b) for a, b in itertools.pairwise(names))


def chain_break(word: int) -> str | None:
    """How a verdict word breaks the implication ``CHAIN``, or None if it keeps it."""
    for stronger, weaker in itertools.pairwise(CHAIN):
        if word & AXIOM_BITS[stronger] and not word & AXIOM_BITS[weaker]:
            return f"{stronger} holds but {weaker} fails"
    return None


def check_implication_chain(word: int, where: object) -> None:
    """Raise if the verdict word breaks the chain; ``where`` names the space in the message."""
    broken = chain_break(word)
    if broken:
        raise InternalDisagreementError(f"implication chain broken on {where!r}: {broken}")


def axiom_profile(s: GbtSpace, cross_validate: bool = False) -> AxiomProfile:
    """All nine verdicts, with the implication chain asserted.

    Each distinct decider of ``DECIDERS`` runs once.  With ``cross_validate``
    its verdict is also held to the second routes of its ``AXIOMS`` rows
    (a route that rows share runs once), before the chain: a disagreement
    between routes raises.
    """
    t1, t2 = s.mu1, s.mu2
    decided = {decide: decide(t1, t2) for decide in dict.fromkeys(DECIDERS.values())}
    verdicts = {name: decided[decide] for name, decide in DECIDERS.items()}
    routes = ((DECIDERS[name], route) for name, row in AXIOMS.items() for route in row.routes)
    for decide, route in dict.fromkeys(routes) if cross_validate else ():
        verdict, value = decided[decide][0], route(s)
        if value != verdict:
            raise InternalDisagreementError(
                f"routes disagree on {s!r}: {decide.__name__}={verdict}, {route.__name__}={value}"
            )
    witnesses = {name: w for name, (ok, w) in verdicts.items() if not ok and w is not None}
    # the profile's fields follow AXIOM_NAMES, as DECIDERS does
    profile = AxiomProfile(*(ok for ok, _ in verdicts.values()), witnesses=witnesses)
    check_implication_chain(profile_word(profile), s)
    return profile
