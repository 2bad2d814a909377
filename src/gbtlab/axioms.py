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
g-closed family lies inside its closed one.  The deciders keep ``(t1, t2)``
and their own scans, since mining decides every hit again through
``evaluate_axiom(name, t1, t2)`` with no space at hand; reading a space's
family masks there made hit-heavy queries slower.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from functools import reduce
from operator import and_, or_
from typing import NamedTuple

from .gbt import GbtSpace
from .gt import GeneralizedTopology, meet_table, sliced_meet_table
from .records import FrozenRecord
from .sets import family_of


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


AXIOM_NAMES = ("T0", "T1_4", "T3_8", "T5_8", "T1_2", "T1", "R0", "SYM", "LSYM")
# the implication chain T1/2 ⟹ T5/8 ⟹ T3/8 ⟹ T1/4 ⟹ T0, strongest first
CHAIN = ("T1_2", "T5_8", "T3_8", "T1_4", "T0")

_ALIASES = {
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


def normalize_axiom_name(name: str) -> str:
    try:
        return _ALIASES[name.lower()]
    except KeyError:
        raise UnknownAxiomError(f"unknown axiom {name!r}; known: {', '.join(AXIOM_NAMES)}") from None


class AxiomProfile(FrozenRecord):
    """Truth record of the nine pairwise axioms for one space.

    ``witnesses`` maps an axiom name to a short explanation of the first
    falsifying configuration found, for every axiom that is false; equality
    and hash read the nine verdicts alone.
    """

    _compared = ("t0", "t_quarter", "t_3_8", "t_5_8", "t_half", "t1", "r0", "symmetric", "lambda_symmetric")
    _fields = (*_compared, "witnesses")

    def __init__(
        self,
        t0: bool,
        t_quarter: bool,
        t_3_8: bool,
        t_5_8: bool,
        t_half: bool,
        t1: bool,
        r0: bool,
        symmetric: bool,
        lambda_symmetric: bool,
        witnesses: dict[str, str] | None = None,
    ) -> None:
        witnesses = {} if witnesses is None else witnesses
        self._fill(t0, t_quarter, t_3_8, t_5_8, t_half, t1, r0, symmetric, lambda_symmetric, witnesses)

    def value(self, axiom: str) -> bool:
        return self.as_dict()[normalize_axiom_name(axiom)]

    def as_dict(self) -> dict[str, bool]:
        return {
            "T0": self.t0,
            "T1_4": self.t_quarter,
            "T3_8": self.t_3_8,
            "T5_8": self.t_5_8,
            "T1_2": self.t_half,
            "T1": self.t1,
            "R0": self.r0,
            "SYM": self.symmetric,
            "LSYM": self.lambda_symmetric,
        }


# The decider of each axiom, in the order of AXIOM_NAMES.  T1/4, T3/8 and
# T5/8 share one.
DECIDERS = {
    "T0": decide_t0,
    "T1_4": decide_all_lambda,
    "T3_8": decide_all_lambda,
    "T5_8": decide_all_lambda,
    "T1_2": decide_t_half,
    "T1": decide_t1,
    "R0": decide_r0,
    "SYM": decide_symmetric,
    "LSYM": decide_lambda_symmetric,
}


def evaluate_axiom(name: str, t1: GeneralizedTopology, t2: GeneralizedTopology) -> bool:
    """Fast single-axiom evaluation used by the mining sweeps."""
    return DECIDERS[normalize_axiom_name(name)](t1, t2)[0]


# Pair kernel.  Mining decides millions of pairs drawn from one list of
# topologies, so every axiom also has a packed form: a few integers per
# topology (its signature), each recording what a pair must not have in
# common.  Bit fields are n bits wide (n + 1 for LSYM); field k of a
# packing belongs to subset mask k or to point k.
#
# A column holds the signatures of the list bit-sliced: per signature
# component, slice k is the int whose bit p is set when topology p's
# component has bit k.  The slices come first, for the whole list at once:
# ``sliced_tables`` runs one ``gt.sliced_meet_table`` pass for the closure
# and one for the wedge over every topology together, and each kernel
# combines those table slices (T1/2 reads the open slices); no table of
# a single topology is built.  The signatures are the slices transposed.  A row (first topology fixed) is then one int whose
# bit p is the verdict on the pair (first, topology p): the complement of
# the positions whose signatures meet the first's, and those are the OR of
# the slices named by the set bits of the first's signature (``_meet``).
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


def sliced_tables(topologies) -> SlicedTables:
    """The sliced tables of a nonempty sequence of topologies on one ground
    set.  Subset a is closed where X − a is open, so the closed slices are
    the open ones in reverse order."""
    n = topologies[0].ground.size
    every = (1 << len(topologies)) - 1
    opens = _sliced([family_of(t.opens) for t in topologies], 1 << n)
    closure = sliced_meet_table(opens[::-1], n, every)
    return SlicedTables(n, every, opens, closure, sliced_meet_table(opens, n, every))


class KernelColumn(NamedTuple):
    """The signatures of a list of topologies, bit-sliced.

    ``slices`` holds, per signature component, one slice per bit (as many
    as the widest component has bits, at least one); ``every`` has one bit
    per position.
    """

    signatures: tuple[tuple[int, ...], ...]
    slices: tuple[tuple[int, ...], ...]
    every: int


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


def _t1_slices(t: SlicedTables) -> tuple[list[int], list[int], list[int]]:
    """Bit y of field x (x != y): no open contains x but not y, which is
    when y lies in ∧({x}); its transpose; and 1 when those two meet, which
    fails every pair."""
    missing = _off_diagonal(_point_fields(t.wedge, t.size), t.size)
    missing_t = _transposed(missing, t.size)
    return missing, missing_t, [reduce(or_, map(and_, missing, missing_t))]


def _t1_row(column: KernelColumn, m: int, mt: int, alone: int) -> int:
    """Holds iff no ordered point pair is left unseparated by both readings:
    (m1 ∪ mt2) ∩ (mt1 ∪ m2) is empty.  Of its four terms, m1 ∩ mt1 is the
    first topology's flag, m2 ∩ mt2 is the slice of the second's flags."""
    if alone:
        return 0
    ms, mts, alones = column.slices
    return column.every & ~(_meet(ms, m) | _meet(mts, mt) | alones[0])


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
    """Holds iff p1 ∩ q2 and p2 ∩ q1 are both empty (T1/2, R0 and SYM)."""
    ps, qs = column.slices
    return column.every & ~(_meet(qs, p) | _meet(ps, q))


def _widened(fields: list[int], n: int, top: int) -> list[int]:
    """n-bit fields as fields of n + 1 bits whose top bit is ``top``."""
    return [v for a in range(0, len(fields), n) for v in (*fields[a : a + n], top)]


def _lambda_symmetric_slices(t: SlicedTables) -> tuple[list[int], ...]:
    """Per subset a: cl(a) ∩ ∧(a), cl(a) and ∧(a), each minus a, in fields
    one bit wider than n whose top bits are the guards; then the guards."""
    n = t.size
    tables = (map(and_, t.closure, t.wedge), t.closure, t.wedge)
    return (
        *(_widened(_excess(table, n), n, 0) for table in tables),
        _widened([0] * (n << n), n, t.every),
    )


def _lambda_symmetric_row(column: KernelColumn, lam: int, clx: int, wx: int, g: int) -> int:
    """A subset that is pairwise λ-closed (its field of lam1 ∩ lam2 is empty)
    must be λ-closed on both sides (its field of cl1 ∩ w2 ∪ cl2 ∩ w1 is empty).
    Per field (the bits between two guards of g), the positions where the
    first is not empty must be those where the second is not."""
    lams, clxs, wxs, _ = column.slices
    fails = below = 0
    while g:
        guard = g & -g
        g ^= guard
        field = guard - 1 & ~below
        below = guard | guard - 1
        c, w = clx & field, wx & field
        if c | w:
            fails |= _meet(lams, lam & field) ^ (_meet(wxs, c) | _meet(clxs, w))
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
        return KernelColumn(signatures, slices, tables.every)

    def verdicts(self, column: KernelColumn, i: int) -> int:
        """The row of position i: bit p is the verdict on the pair (i, p)."""
        return self.row(column, *column.signatures[i])


_LAMBDA_KERNEL = PairKernel(_lambda_slices, _disjoint_row)

# T1/4, T3/8 and T5/8 share one kernel, as they share one decider.
PAIR_KERNELS = {
    "T0": PairKernel(_t0_slices, _disjoint_row),
    "T1_4": _LAMBDA_KERNEL,
    "T3_8": _LAMBDA_KERNEL,
    "T5_8": _LAMBDA_KERNEL,
    "T1_2": PairKernel(_t_half_slices, _crossed_disjoint_row),
    "T1": PairKernel(_t1_slices, _t1_row),
    "R0": PairKernel(_r0_slices, _crossed_disjoint_row),
    "SYM": PairKernel(_symmetric_slices, _crossed_disjoint_row),
    "LSYM": PairKernel(_lambda_symmetric_slices, _lambda_symmetric_row),
}


def cross_validate_space(s: GbtSpace) -> None:
    """Run every alternative decision route; raise on any disagreement."""
    t1, t2 = s.mu1, s.mu2
    t0 = decide_t0(t1, t2)[0]
    routes_t0 = (t0_by_one_point_sets(s), t0_by_singletons(s))
    if any(r != t0 for r in routes_t0):
        raise InternalDisagreementError(
            f"T0 routes disagree on {s!r}: definitional={t0}, "
            f"one-point-sets={routes_t0[0]}, singleton-λ={routes_t0[1]}"
        )
    t_half = decide_t_half(t1, t2)[0]
    if t_half_by_definition(s) != t_half:
        raise InternalDisagreementError(f"T1/2 routes disagree on {s!r}: singleton rule={t_half}")
    frac = decide_all_lambda(t1, t2)[0]
    if t_fraction_by_definition(s) != frac:
        raise InternalDisagreementError(f"T1/4-T5/8 routes disagree on {s!r}: λ-scan={frac}")


def check_implication_chain(verdicts: dict[str, bool], where: object) -> None:
    """Raise unless the implication ``CHAIN`` holds among ``verdicts``.

    ``where`` names the space in the message.
    """
    for stronger, weaker in itertools.pairwise(CHAIN):
        if verdicts[stronger] and not verdicts[weaker]:
            raise InternalDisagreementError(
                f"implication chain broken on {where!r}: {stronger} holds but {weaker} fails"
            )


def axiom_profile(s: GbtSpace, cross_validate: bool = False) -> AxiomProfile:
    """All nine verdicts, with the implication chain asserted.

    With ``cross_validate`` every axiom that has more than one decision
    route is computed by all of them (exit surface for the agreement
    acceptance criterion).
    """
    t1, t2 = s.mu1, s.mu2
    if cross_validate:
        cross_validate_space(s)

    decided = {decide: decide(t1, t2) for decide in dict.fromkeys(DECIDERS.values())}
    verdicts = {name: decided[decide] for name, decide in DECIDERS.items()}

    check_implication_chain({name: ok for name, (ok, _) in verdicts.items()}, s)

    witnesses = {name: w for name, (ok, w) in verdicts.items() if not ok and w is not None}
    # the profile's fields follow AXIOM_NAMES, as DECIDERS does
    return AxiomProfile(*(ok for ok, _ in verdicts.values()), witnesses=witnesses)
