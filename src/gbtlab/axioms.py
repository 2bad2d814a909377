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
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, reduce
from operator import or_

from .gbt import GbtSpace
from .gt import GeneralizedTopology, meet_table


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


def t0_by_one_point_sets(t1: GeneralizedTopology, t2: GeneralizedTopology) -> bool:
    """T0 via sets that are open on one side or closed on the other."""
    kinds = set(t1.opens) | set(t2.opens) | set(t1.closed_masks) | set(t2.closed_masks)
    n = t1.ground.size
    for x, y in itertools.combinations(range(n), 2):
        p, q = 1 << x, 1 << y
        if not any(bool(k & p) != bool(k & q) for k in kinds):
            return False
    return True


def t0_by_singletons(t1: GeneralizedTopology, t2: GeneralizedTopology) -> bool:
    """T0 via pairwise λ-closedness of every singleton."""
    cl1, cl2, w1, w2 = t1.closure_table, t2.closure_table, t1.wedge_table, t2.wedge_table
    return all(
        cl1[p] & cl2[p] & w1[p] & w2[p] == p
        for p in (1 << x for x in range(t1.ground.size))
    )


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
    """Singleton rule: each {x} is (mu1-open or mu2-closed) and (mu2-open or mu1-closed)."""
    full = t1.ground.full_mask
    for x in range(t1.ground.size):
        p = 1 << x
        open1 = t1.open_family >> p & 1
        open2 = t2.open_family >> p & 1
        closed1 = t1.open_family >> (full ^ p) & 1
        closed2 = t2.open_family >> (full ^ p) & 1
        if not (open1 or closed2):
            return False, f"singleton {{{t1.ground.names[x]}}} neither mu1-open nor mu2-closed"
        if not (open2 or closed1):
            return False, f"singleton {{{t1.ground.names[x]}}} neither mu2-open nor mu1-closed"
    return True, None


def t_half_by_definition(t1: GeneralizedTopology, t2: GeneralizedTopology) -> bool:
    """Literal subset scan: every g-closed set wrt the other side is closed."""
    full = t1.ground.full_mask
    for ta, tb in ((t1, t2), (t2, t1)):
        for a in range(full + 1):
            g_closed = ta.closure_table[a] & ~tb.wedge_table[a] == 0
            if g_closed and ta.closure_table[a] != a:
                return False
    return True


def decide_all_lambda(t1: GeneralizedTopology, t2: GeneralizedTopology) -> tuple[bool, str | None]:
    """Every subset pairwise λ-closed: the shared T1/4 = T3/8 = T5/8 decider."""
    cl1, cl2, w1, w2 = t1.closure_table, t2.closure_table, t1.wedge_table, t2.wedge_table
    for a in range(t1.ground.full_mask + 1):
        if cl1[a] & cl2[a] & w1[a] & w2[a] != a:
            return False, f"subset {t1.ground.label(a)} is not pairwise λ-closed"
    return True, None


def t_fraction_by_definition(t1: GeneralizedTopology, t2: GeneralizedTopology) -> bool:
    """Separation of every subset from every outside point by one of the four
    kinds of set (open or closed on either side).  On a finite carrier this is
    the definitional algorithm for T1/4, T3/8 and T5/8 alike.  The kinds
    containing P meet in their hull, and a point outside P is separated from
    P exactly when it lies outside the hull; the hulls of all P come from
    one superset DP (``gt.meet_table``)."""
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


@dataclass(frozen=True)
class AxiomProfile:
    """Truth record of the nine pairwise axioms for one space.

    ``witnesses`` maps an axiom name to a short explanation of the first
    falsifying configuration found, for every axiom that is false.
    """

    t0: bool
    t_quarter: bool
    t_3_8: bool
    t_5_8: bool
    t_half: bool
    t1: bool
    r0: bool
    symmetric: bool
    lambda_symmetric: bool
    witnesses: dict[str, str] = field(default_factory=dict, compare=False)

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
# topology, built once from its operator tables, on which the verdict of a
# pair is a few bitwise operations.  Each signature records what a pair
# must not have in common, so a row needs nothing but the signatures.  Bit
# fields are n bits wide (n + 1 for LSYM); field k of a packing belongs to
# subset mask k or to point k.  The deciders above are the kernel's oracles: mining
# re-decides every pair the kernel reports.


def _packed(fields, width: int) -> int:
    return sum(f << width * k for k, f in enumerate(fields))


def _transposed(m: int, n: int) -> int:
    """Swap the roles of field and bit: bit y of field x becomes bit x of field y."""
    return sum(1 << n * y + x for x in range(n) for y in range(n) if m >> n * x + y & 1)


@cache
def _off_diagonal(n: int) -> int:
    return _packed((((1 << n) - 1) ^ 1 << x for x in range(n)), n)


def _lambda_excess(t: GeneralizedTopology) -> tuple[int]:
    """Per subset a: cl(a) ∩ wedge(a) minus a.  A pair is T1/4 iff these are disjoint."""
    cl, w, n = t.closure_table, t.wedge_table, t.ground.size
    return (_packed((cl[a] & w[a] & ~a for a in range(1 << n)), n),)


def _t0_signature(t: GeneralizedTopology) -> tuple[int]:
    """One bit per unordered point pair that no open splits.  T0 iff disjoint."""
    pairs = itertools.combinations(range(t.ground.size), 2)
    split = (any((u >> x ^ u >> y) & 1 for u in t.opens) for x, y in pairs)
    return (sum(1 << k for k, s in enumerate(split) if not s),)


def _disjoint_row(p, ps):
    return [p & b == 0 for b in ps]


def _t1_signature(t: GeneralizedTopology) -> tuple[int, int]:
    """Bit y of field x (x != y): no open contains x but not y; and its transpose."""
    n, full = t.ground.size, t.ground.full_mask
    o = _packed((reduce(or_, (full & ~u for u in t.opens if u >> x & 1), 0) for x in range(n)), n)
    missing = _off_diagonal(n) & ~o
    return missing, _transposed(missing, n)


def _t1_row(m, mt, ms, mts):
    """Holds iff no ordered point pair is left unseparated by both readings."""
    return [(m | bt) & (mt | b) == 0 for b, bt in zip(ms, mts)]


def _t_half_signature(t: GeneralizedTopology) -> tuple[int, int]:
    """Points whose singleton is not open, and points whose singleton is not closed."""
    full = t.ground.full_mask
    return full & ~t.open_points, full & ~t.closed_points


def _r0_signature(t: GeneralizedTopology) -> tuple[int, int]:
    """Per point x: cl({x}), and the complement of wedge({x})."""
    n, full = t.ground.size, t.ground.full_mask
    points = [1 << x for x in range(n)]
    return (
        _packed((t.closure_table[p] for p in points), n),
        _packed((full & ~t.wedge_table[p] for p in points), n),
    )


def _symmetric_signature(t: GeneralizedTopology) -> tuple[int, int]:
    """Per point x: cl({x}), and the off-diagonal points y with x outside cl({y})."""
    n = t.ground.size
    c = _packed((t.closure_table[1 << x] for x in range(n)), n)
    return c, _off_diagonal(n) & ~_transposed(c, n)


def _crossed_disjoint_row(p, q, ps, qs):
    """Holds iff p1 ∩ q2 and p2 ∩ q1 are both empty (T1/2, R0 and SYM)."""
    return [p & b | a & q == 0 for a, b in zip(ps, qs)]


@cache
def _guards(n: int) -> int:
    """The top bit of every (n + 1)-bit field of a per-subset packing."""
    return _packed(itertools.repeat(1 << n, 1 << n), n + 1)


def _lambda_symmetric_signature(t: GeneralizedTopology) -> tuple[int, int, int, int]:
    """Per subset a: cl(a) ∩ wedge(a), cl(a) and wedge(a), each minus a, in
    fields one bit wider than n whose top bits are the guards; then the guards."""
    cl, w, n = t.closure_table, t.wedge_table, t.ground.size
    subsets = range(1 << n)
    return (
        _packed((cl[a] & w[a] & ~a for a in subsets), n + 1),
        _packed((cl[a] & ~a for a in subsets), n + 1),
        _packed((w[a] & ~a for a in subsets), n + 1),
        _guards(n),
    )


def _lambda_symmetric_row(lam, clx, wx, g, lams, clxs, wxs, _):
    """A subset that is pairwise λ-closed (its field of lam1 ∩ lam2 is empty)
    must be λ-closed on both sides (its field of cl1 ∩ w2 ∪ cl2 ∩ w1 is empty).
    The first field lies inside the second, so their empty fields must agree:
    a field's guard survives g - v iff the field of v is empty."""
    return [
        (g - (lam & m)) & g == (g - (clx & w | c & wx)) & g
        for m, c, w in zip(lams, clxs, wxs)
    ]


@dataclass(frozen=True)
class PairKernel:
    """Packed decision of one axiom over pairs from a list of topologies.

    ``row`` takes the signature of the pair's first topology, then for each
    signature component the sequence of it over the second topologies.
    """

    signature: Callable[[GeneralizedTopology], tuple[int, ...]]
    row: Callable[..., list[bool]]

    def column(self, topologies) -> tuple[tuple[int, ...], ...]:
        """Per signature component, its value on every one of ``topologies``."""
        return tuple(zip(*map(self.signature, topologies)))

    def verdicts(self, column: tuple[tuple[int, ...], ...], i: int, start: int) -> list[bool]:
        """Verdicts on the pairs (i, j) for every j >= start, in order of j."""
        return self.row(*(c[i] for c in column), *(c[start:] for c in column))


_LAMBDA_KERNEL = PairKernel(_lambda_excess, _disjoint_row)

# T1/4, T3/8 and T5/8 share one kernel, as they share one decider.
PAIR_KERNELS = {
    "T0": PairKernel(_t0_signature, _disjoint_row),
    "T1_4": _LAMBDA_KERNEL,
    "T3_8": _LAMBDA_KERNEL,
    "T5_8": _LAMBDA_KERNEL,
    "T1_2": PairKernel(_t_half_signature, _crossed_disjoint_row),
    "T1": PairKernel(_t1_signature, _t1_row),
    "R0": PairKernel(_r0_signature, _crossed_disjoint_row),
    "SYM": PairKernel(_symmetric_signature, _crossed_disjoint_row),
    "LSYM": PairKernel(_lambda_symmetric_signature, _lambda_symmetric_row),
}


def cross_validate_space(s: GbtSpace) -> None:
    """Run every alternative decision route; raise on any disagreement."""
    t1, t2 = s.mu1, s.mu2
    t0 = decide_t0(t1, t2)[0]
    routes_t0 = (t0_by_one_point_sets(t1, t2), t0_by_singletons(t1, t2))
    if any(r != t0 for r in routes_t0):
        raise InternalDisagreementError(
            f"T0 routes disagree on {s!r}: definitional={t0}, "
            f"one-point-sets={routes_t0[0]}, singleton-λ={routes_t0[1]}"
        )
    t_half = decide_t_half(t1, t2)[0]
    if t_half_by_definition(t1, t2) != t_half:
        raise InternalDisagreementError(
            f"T1/2 routes disagree on {s!r}: singleton rule={t_half}"
        )
    frac = decide_all_lambda(t1, t2)[0]
    if t_fraction_by_definition(t1, t2) != frac:
        raise InternalDisagreementError(
            f"T1/4-T5/8 routes disagree on {s!r}: λ-scan={frac}"
        )


def check_implication_chain(verdicts: dict[str, bool], where: object) -> None:
    """Raise unless T1/2 ⟹ T5/8 ⟹ T3/8 ⟹ T1/4 ⟹ T0 holds among ``verdicts``.

    ``where`` names the space in the message.
    """
    chain = ("T1_2", "T5_8", "T3_8", "T1_4", "T0")
    for stronger, weaker in itertools.pairwise(chain):
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
