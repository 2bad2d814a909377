"""Machine-checkable registry of the theory's claims.

Each record is one proposition about generalized bitopological spaces:
a universal implication or equivalence (checked on every canonical space
in scope, then spot-checked on random larger spaces), a conditional
closure statement, a fixture assertion (a worked example's stated
verdict, recomputed by the engine), or an out-of-scope note for claims
that need an infinite carrier.  Engine verdicts are always computed from
the deciders; recorded verdicts are data.  A disagreement on a fixture
is reported as a fixture mismatch, not raised as an error, so errata in
the source examples surface as findings.

Claim THM-33 is registered twice on purpose: once literally (each
singleton open or closed within the SAME topology) and once in the
cross-index reading that matches the singleton rule REM-32.  The sweep
decides which reading agrees with the definitional T1/2; the literal
reading is expected to be refuted in both directions.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from random import Random

from . import gbt
from .axioms import (
    AXIOM_NAMES,
    axiom_profile,
    decide_all_lambda,
    decide_t0,
    decide_t_half,
    normalize_axiom_name,
    t0_by_one_point_sets,
    t0_by_singletons,
    t_fraction_by_definition,
    t_half_by_definition,
)
from .enumeration import check_size, enumerate_gbt_pairs, gts_on
from .fixtures import FIXTURES, Assertion, Fixture, get_fixture
from .gbt import GbtSpace
from .gt import (
    closure,
    is_closed,
    is_gt_T0,
    is_gt_T1,
    is_open,
    is_vee_set,
    is_wedge_set,
    validate_gt,
    vee_family,
    wedge,
)
from .mining import find_g_intersection_violation, find_g_union_violation
from .sets import Subset, parse_subset

STATUS_VERIFIED = "verified"
STATUS_REFUTED = "refuted-with-witness"
STATUS_MISMATCH = "fixture-mismatch"
STATUS_OUT_OF_SCOPE = "out-of-scope"


@dataclass(frozen=True)
class ClaimRecord:
    id: str
    kind: str
    statement: str
    scope: str
    checker: str

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "statement": self.statement,
            "scope": self.scope,
            "checker": self.checker,
        }


@dataclass
class ClaimReport:
    id: str
    status: str
    witness: str | None
    spaces_checked: int
    elapsed: float

    def as_dict(self, with_timing: bool = False) -> dict:
        data = {
            "id": self.id,
            "status": self.status,
            "witness": self.witness,
            "spaces_checked": self.spaces_checked,
        }
        if with_timing:
            data["elapsed"] = self.elapsed
        return data


class SpaceContext:
    """One space with everything the claim checkers share precomputed."""

    def __init__(self, space: GbtSpace):
        self.space = space
        self.t1 = space.mu1
        self.t2 = space.mu2
        self.full = space.ground.full_mask
        self.subsets = range(self.full + 1)
        self.label = space.ground.label

    def sides(self):
        return ((1, self.t1, self.t2), (2, self.t2, self.t1))

    def where(self, detail: str) -> str:
        return f"{self.space!r}: {detail}"

    @cached_property
    def g_closed(self) -> dict[int, list[int]]:
        out = {}
        for i, ta, tb in self.sides():
            out[i] = [
                a for a in self.subsets if ta.closure_table[a] & ~tb.wedge_table[a] == 0
            ]
        return out

    @cached_property
    def g_open(self) -> dict[int, set[int]]:
        return {i: {self.full ^ a for a in masks} for i, masks in self.g_closed.items()}

    @cached_property
    def lambda_closed(self) -> dict[int, set[int]]:
        out = {}
        for i, ta, tb in self.sides():
            out[i] = {
                a for a in self.subsets if ta.closure_table[a] & tb.wedge_table[a] == a
            }
        return out

    @cached_property
    def pairwise_lambda(self) -> set[int]:
        t1, t2 = self.t1, self.t2
        return {
            a
            for a in self.subsets
            if t1.closure_table[a] & t2.closure_table[a] & t1.wedge_table[a] & t2.wedge_table[a] == a
        }

    @cached_property
    def wedge_sets(self) -> dict[int, list[int]]:
        return {
            i: [a for a in self.subsets if t.wedge_table[a] == a]
            for i, t, _ in self.sides()
        }

    @cached_property
    def vee_sets(self) -> dict[int, list[int]]:
        return {
            i: [a for a in self.subsets if t.vee_table[a] == a]
            for i, t, _ in self.sides()
        }

    @cached_property
    def profile(self):
        return axiom_profile(self.space)

    @cached_property
    def all_lambda(self) -> bool:
        return decide_all_lambda(self.t1, self.t2)[0]

    @cached_property
    def fraction_definitional(self) -> bool:
        return t_fraction_by_definition(self.t1, self.t2)

    @cached_property
    def t_half_definitional(self) -> bool:
        return t_half_by_definition(self.t1, self.t2)

    def singleton_kinds(self, x: int) -> tuple[bool, bool, bool, bool]:
        """(mu1-open, mu2-open, mu1-closed, mu2-closed) for singleton x."""
        p = 1 << x
        return (
            p in self.t1.open_mask_set,
            p in self.t2.open_mask_set,
            (self.full ^ p) in self.t1.open_mask_set,
            (self.full ^ p) in self.t2.open_mask_set,
        )


# ---------------------------------------------------------------------------
# universal / equivalence / conditional checkers: return None when the claim
# holds on the given space, otherwise a description of the first violation.


def check_lem7(ctx: SpaceContext) -> str | None:
    for i, t, _ in ctx.sides():
        w, v = t.wedge_table, t.vee_table
        if w[0] != 0 or v[0] != 0 or w[ctx.full] != ctx.full or v[ctx.full] != ctx.full:
            return ctx.where(f"wedge/vee boundary values wrong on side {i}")
        for a in ctx.subsets:
            if a & ~w[a]:
                return ctx.where(f"side {i}: {ctx.label(a)} not inside its wedge")
            if v[a] & ~a:
                return ctx.where(f"side {i}: vee of {ctx.label(a)} escapes the set")
            if w[w[a]] != w[a] or v[v[a]] != v[a]:
                return ctx.where(f"side {i}: wedge/vee not idempotent at {ctx.label(a)}")
            for x in range(ctx.space.ground.size):
                b = a | 1 << x
                if b != a and (w[a] & ~w[b] or v[a] & ~v[b]):
                    return ctx.where(f"side {i}: wedge/vee not monotone at {ctx.label(a)}")
    return None


def check_rem9(ctx: SpaceContext) -> str | None:
    for i, ta, tb in ctx.sides():
        g = set(ctx.g_closed[i])
        for c in ta.closed_masks:
            if c not in g:
                return ctx.where(f"mu{i}-closed {ctx.label(c)} is not g-closed")
        for a in g:
            if a in tb.open_mask_set and ta.closure_table[a] != a:
                return ctx.where(
                    f"{ctx.label(a)} g-closed on side {i} and open on the other side but not closed"
                )
    return None


def check_note10(ctx: SpaceContext) -> str | None:
    for i, ta, tb in ctx.sides():
        for a in ctx.subsets:
            w = tb.wedge_table[a]
            if tb.wedge_table[w] != w:
                return ctx.where(f"wedge of {ctx.label(a)} is not itself a wedge-set")
            if w == a:
                g = ta.closure_table[a] & ~w == 0
                closed = ta.closure_table[a] == a
                if g != closed:
                    return ctx.where(
                        f"wedge-set {ctx.label(a)}: g-closed({g}) != closed({closed}) on side {i}"
                    )
    return None


def check_thm12(ctx: SpaceContext) -> str | None:
    for i, ta, tb in ctx.sides():
        for a in ctx.g_closed[i]:
            gap = ta.closure_table[a] & ~a
            for f in tb.closed_masks:
                if f and f & ~gap == 0:
                    return ctx.where(
                        f"g-closed {ctx.label(a)} (side {i}) has closed {ctx.label(f)} in its closure gap"
                    )
    return None


def check_union_g_conditional(ctx: SpaceContext) -> str | None:
    for i, ta, _ in ctx.sides():
        g = set(ctx.g_closed[i])
        closed = ta.closed_masks
        if all(c1 | c2 in g for c1 in closed for c2 in closed):
            for a in g:
                for b in g:
                    if a | b not in g:
                        return ctx.where(
                            f"side {i}: closed-union hypothesis holds but "
                            f"{ctx.label(a)} ∪ {ctx.label(b)} escapes the g-closed family"
                        )
    return None


def check_union_weakly_separated(ctx: SpaceContext) -> str | None:
    for i, _, tb in ctx.sides():
        g_open = ctx.g_open[i]
        opens_j = tb.opens
        for a in sorted(g_open):
            rest = ctx.full & ~a
            b = rest
            while True:
                if b in g_open:
                    sep_a = any(a & ~u == 0 and u & b == 0 for u in opens_j)
                    sep_b = any(b & ~v == 0 and v & a == 0 for v in opens_j)
                    if sep_a and sep_b and (a | b) not in g_open:
                        return ctx.where(
                            f"side {i}: weakly separated g-open {ctx.label(a)}, {ctx.label(b)} "
                            f"have non-g-open union"
                        )
                if b == 0:
                    break
                b = (b - 1) & rest
    return None


def check_thm15(ctx: SpaceContext) -> str | None:
    if decide_t0(ctx.t1, ctx.t2)[0] != t0_by_one_point_sets(ctx.t1, ctx.t2):
        return ctx.where("T0 differs from the one-point-set characterization")
    return None


def check_rem16(ctx: SpaceContext) -> str | None:
    if (is_gt_T0(ctx.t1) or is_gt_T0(ctx.t2)) and not ctx.profile.t0:
        return ctx.where("one topology is T0 but the space is not pairwise T0")
    if ctx.profile.t1 and not ctx.profile.t0:
        return ctx.where("pairwise T1 without pairwise T0")
    return None


def check_thm18(ctx: SpaceContext) -> str | None:
    if not ctx.profile.t0:
        return None
    cl1, cl2 = ctx.t1.closure_table, ctx.t2.closure_table
    for x, y in itertools.combinations(range(ctx.space.ground.size), 2):
        p, q = 1 << x, 1 << y
        if (
            cl1[q] & p
            and cl2[p] & q
            and cl1[p] & q
            and cl2[q] & p
        ):
            return ctx.where(f"T0 space where both closures glue the pair bit{x},bit{y}")
    return None


def check_thm20(ctx: SpaceContext) -> str | None:
    if ctx.profile.t0 and ctx.profile.symmetric and not ctx.profile.t1:
        return ctx.where("T0 and symmetric but not T1")
    return None


def _singleton_closed_somewhere(ctx: SpaceContext) -> bool:
    return all(
        ctx.singleton_kinds(x)[2] or ctx.singleton_kinds(x)[3]
        for x in range(ctx.space.ground.size)
    )


def check_thm21(ctx: SpaceContext) -> str | None:
    if ctx.profile.t1 and not _singleton_closed_somewhere(ctx):
        return ctx.where("T1 but some singleton closed on neither side")
    return None


def check_note23(ctx: SpaceContext) -> str | None:
    both = all(
        ctx.singleton_kinds(x)[2] and ctx.singleton_kinds(x)[3]
        for x in range(ctx.space.ground.size)
    )
    if both and not ctx.profile.t1:
        return ctx.where("all singletons closed on both sides but not T1")
    return None


def check_thm28(ctx: SpaceContext) -> str | None:
    rule = True
    for x in range(ctx.space.ground.size):
        o1, o2, c1, c2 = ctx.singleton_kinds(x)
        if (not c2 and not o1) or (not c1 and not o2):
            rule = False
            break
    if rule != ctx.t_half_definitional:
        return ctx.where(f"T1/2 definitional={ctx.t_half_definitional} but singleton rule={rule}")
    return None


def check_cor29(ctx: SpaceContext) -> str | None:
    rule = True
    for x in range(ctx.space.ground.size):
        o1, o2, c1, c2 = ctx.singleton_kinds(x)
        if (not o1 and not c2) or (not o2 and not c1):
            rule = False
            break
    if rule != ctx.t_half_definitional:
        return ctx.where("contrapositive singleton rule disagrees with definitional T1/2")
    return None


def check_thm30(ctx: SpaceContext) -> str | None:
    for i, ta, tb in ctx.sides():
        singles = all(
            (1 << x) in ta.open_mask_set or (ctx.full ^ (1 << x)) in tb.open_mask_set
            for x in range(ctx.space.ground.size)
        )
        g_is_closed = all(ta.closure_table[a] == a for a in ctx.g_closed[i])
        if singles != g_is_closed:
            return ctx.where(
                f"side {i}: singleton condition={singles} but g-closed-implies-closed={g_is_closed}"
            )
    return None


def check_rem32(ctx: SpaceContext) -> str | None:
    if decide_t_half(ctx.t1, ctx.t2)[0] != ctx.t_half_definitional:
        return ctx.where("two-condition singleton rule disagrees with definitional T1/2")
    return None


def check_thm33_literal(ctx: SpaceContext) -> str | None:
    literal = all(
        (o1 or c1) and (o2 or c2)
        for o1, o2, c1, c2 in (ctx.singleton_kinds(x) for x in range(ctx.space.ground.size))
    )
    if literal != ctx.t_half_definitional:
        return ctx.where(
            f"same-index singleton condition={literal} but definitional T1/2={ctx.t_half_definitional}"
        )
    return None


def check_thm34(ctx: SpaceContext) -> str | None:
    if not ctx.profile.t_half:
        return None
    for x in range(ctx.space.ground.size):
        if not any(ctx.singleton_kinds(x)):
            return ctx.where(f"T1/2 but singleton bit{x} is none of the four kinds")
    return None


def check_rem37(ctx: SpaceContext) -> str | None:
    if ctx.profile.t_half and not ctx.profile.t0:
        return ctx.where("T1/2 without T0")
    return None


def check_thm40(ctx: SpaceContext) -> str | None:
    for i in (1, 2):
        try:
            gbt.lambda_open_family_wrt(ctx.space, i)
        except Exception as exc:
            return ctx.where(f"λ-open family wrt side {i} is not a generalized topology: {exc}")
    return None


def check_rem41(ctx: SpaceContext) -> str | None:
    for i, t, _ in ctx.sides():
        try:
            validate_gt(ctx.space.ground, vee_family(t))
        except Exception as exc:
            return ctx.where(f"vee-family of side {i} is not a generalized topology: {exc}")
    return None


def check_cor42(ctx: SpaceContext) -> str | None:
    for i, ti, tj in ctx.sides():
        family = {a for a in ctx.subsets if (ctx.full ^ a) in ctx.lambda_closed[i]}
        if not set(ti.opens) <= family:
            return ctx.where(f"λ-open family wrt side {i} misses an open set")
        if not {v for v in ctx.vee_sets[3 - i]} <= family:
            return ctx.where(f"λ-open family wrt side {i} misses a vee-set of the other side")
    return None


def check_lem43(ctx: SpaceContext) -> str | None:
    for i, ta, tb in ctx.sides():
        wsets = ctx.wedge_sets[3 - i]
        closed = ta.closed_masks
        products = {f & l for f in closed for l in wsets}
        for a in ctx.subsets:
            cl, wj = ta.closure_table[a], tb.wedge_table[a]
            f4 = cl & wj == a
            f1 = a in products
            f2 = any(p & wj == a for p in closed)
            f3 = any(cl & l == a for l in wsets)
            if not (f1 == f2 == f3 == f4):
                return ctx.where(
                    f"λ-closed forms disagree at {ctx.label(a)} side {i}: "
                    f"({f1},{f2},{f3},{f4})"
                )
    return None


def check_lem45(ctx: SpaceContext) -> str | None:
    c12 = sorted({f1 & f2 for f1 in ctx.t1.closed_masks for f2 in ctx.t2.closed_masks})
    w12 = sorted({l1 & l2 for l1 in ctx.wedge_sets[1] for l2 in ctx.wedge_sets[2]})
    products = {c & w for c in c12 for w in w12}
    for a in ctx.subsets:
        cl = ctx.t1.closure_table[a] & ctx.t2.closure_table[a]
        wd = ctx.t1.wedge_table[a] & ctx.t2.wedge_table[a]
        f4 = cl & wd == a
        f1 = a in products
        f2 = any(c & wd == a for c in c12)
        f3 = any(cl & w == a for w in w12)
        if not (f1 == f2 == f3 == f4):
            return ctx.where(
                f"pairwise λ-closed forms disagree at {ctx.label(a)}: ({f1},{f2},{f3},{f4})"
            )
    return None


def check_rem46(ctx: SpaceContext) -> str | None:
    for i, ta, tb in ctx.sides():
        for a in ctx.subsets:
            hull_closed = ctx.full
            for c in ta.closed_masks:
                if a & ~c == 0:
                    hull_closed &= c
            hull_open = ctx.full
            seen = False
            for u in tb.opens:
                if a & ~u == 0:
                    hull_open &= u
                    seen = True
            if not seen:
                hull_open = ctx.full
            if hull_closed != ta.closure_table[a] or hull_open != tb.wedge_table[a]:
                return ctx.where(f"hull recomputation differs from tables at {ctx.label(a)}")
            if (hull_closed & hull_open == a) != (a in ctx.lambda_closed[i]):
                return ctx.where(f"intersection-of-hulls reading fails at {ctx.label(a)}")
    return None


def check_obs39(ctx: SpaceContext) -> str | None:
    for i, ta, _ in ctx.sides():
        for c in ta.closed_masks:
            if c not in ctx.lambda_closed[i]:
                return ctx.where(f"closed {ctx.label(c)} not λ-closed on side {i}")
        for w in ctx.wedge_sets[3 - i]:
            if w not in ctx.lambda_closed[i]:
                return ctx.where(f"wedge-set {ctx.label(w)} not λ-closed wrt side {3 - i}")
    return None


def check_obs46(ctx: SpaceContext) -> str | None:
    for a in ctx.subsets:
        if (a in ctx.lambda_closed[1] or a in ctx.lambda_closed[2]) and a not in ctx.pairwise_lambda:
            return ctx.where(f"one-sided λ-closed {ctx.label(a)} not pairwise λ-closed")
    return None


def check_note47(ctx: SpaceContext) -> str | None:
    try:
        gbt.pairwise_lambda_open_family(ctx.space)
    except Exception as exc:
        return ctx.where(f"pairwise λ-open family is not a generalized topology: {exc}")
    return None


def check_thm48(ctx: SpaceContext) -> str | None:
    for i, ta, _ in ctx.sides():
        g = set(ctx.g_closed[i])
        for a in ctx.subsets:
            closed = ta.closure_table[a] == a
            both = a in g and a in ctx.lambda_closed[i]
            if closed != both:
                return ctx.where(
                    f"side {i}, {ctx.label(a)}: closed={closed} but g∧λ={both}"
                )
    return None


def check_note50(ctx: SpaceContext) -> str | None:
    for a in ctx.subsets:
        if ctx.t1.wedge_table[a] & ctx.t2.wedge_table[a] == a and a not in ctx.pairwise_lambda:
            return ctx.where(f"∧12-set {ctx.label(a)} not pairwise λ-closed")
    return None


def check_thm51(ctx: SpaceContext) -> str | None:
    if not ctx.profile.t1:
        return None
    for a in ctx.subsets:
        if ctx.t1.wedge_table[a] & ctx.t2.wedge_table[a] != a:
            return ctx.where(f"T1 but {ctx.label(a)} is not a ∧12-set")
    return None


def check_thm52(ctx: SpaceContext) -> str | None:
    if ctx.profile.t_half and not ctx.all_lambda:
        return ctx.where("T1/2 but some subset is not pairwise λ-closed")
    return None


def check_thm54(ctx: SpaceContext) -> str | None:
    if ctx.profile.t1 and ctx.profile.lambda_symmetric and not ctx.profile.t_half:
        return ctx.where("T1 and λ-symmetric but not T1/2")
    return None


def check_fraction_equivalence(ctx: SpaceContext) -> str | None:
    if ctx.fraction_definitional != ctx.all_lambda:
        return ctx.where(
            f"four-kind separation={ctx.fraction_definitional} but λ-scan={ctx.all_lambda}"
        )
    return None


def check_thm57(ctx: SpaceContext) -> str | None:
    if ctx.profile.t_quarter and not ctx.profile.t0:
        return ctx.where("T1/4 without T0")
    return None


def check_thm58(ctx: SpaceContext) -> str | None:
    if decide_t0(ctx.t1, ctx.t2)[0] != t0_by_singletons(ctx.t1, ctx.t2):
        return ctx.where("T0 differs from singleton pairwise-λ-closedness")
    return None


def check_rem63(ctx: SpaceContext) -> str | None:
    p = ctx.profile
    chain = ((p.t_half, p.t_5_8), (p.t_5_8, p.t_3_8), (p.t_3_8, p.t_quarter))
    if any(strong and not weak for strong, weak in chain):
        return ctx.where("separation chain broken")
    return None


def check_thm65(ctx: SpaceContext) -> str | None:
    if ctx.profile.t0 and ctx.profile.r0 and not ctx.profile.t1:
        return ctx.where("T0 and R0 but not T1")
    return None


def check_cor67(ctx: SpaceContext) -> str | None:
    p = ctx.profile
    if p.r0 and p.lambda_symmetric:
        values = {p.t0, p.t1, p.t_half, p.t_5_8, p.t_3_8, p.t_quarter}
        if len(values) > 1:
            return ctx.where("R0 and λ-symmetric but the six axioms are not equivalent")
    return None


# fixture-scoped checkers run once against specific corpus spaces.


def check_rem24() -> str | None:
    e25 = get_fixture("e25").space()
    e26 = get_fixture("e26").space()
    if not axiom_profile(e25).t1 or is_gt_T1(e25.mu1) or is_gt_T1(e25.mu2):
        return "two-point witness does not separate pairwise T1 from one-sided T1"
    if not is_gt_T1(e26.mu1) or axiom_profile(e26).t1:
        return "one-sided-T1 witness does not refute pairwise T1"
    return None


def check_rem66() -> str | None:
    profile = axiom_profile(get_fixture("e35").space())
    if not profile.t1 or profile.r0:
        return "witness space is not (T1 and not R0)"
    return None


_IMPLICATION, _EQUIVALENCE, _CONDITIONAL = "universal-implication", "equivalence", "conditional"

# The claim table, by scope: claim id -> (kind, checker, statement).  The
# "enumeration" checkers take a SpaceContext and run on every swept space;
# the "fixture" checkers take nothing and run once on corpus spaces.
_CLAIMS = {
    "enumeration": {
        "LEM-7": (_IMPLICATION, check_lem7,
            "Wedge and vee fix ∅ and X, bracket their argument, and are idempotent and monotone."),
        "REM-9": (_IMPLICATION, check_rem9,
            "Every closed set is g-closed wrt the other side; a g-closed set open on the other side is closed."),
        "NOTE-10": (_IMPLICATION, check_note10,
            "The wedge of any set is a wedge-set, and on wedge-sets g-closedness coincides with closedness."),
        "THM-12": (_IMPLICATION, check_thm12,
            "The closure gap of a g-closed set contains no nonempty set closed on the other side."),
        "THM-UNION-G": (_CONDITIONAL, check_union_g_conditional,
            "If unions of two closed sets are always g-closed, unions of two g-closed sets are g-closed."),
        "THM-UNION-WS": (_IMPLICATION, check_union_weakly_separated,
            "The union of two weakly separated g-open sets is g-open."),
        "THM-15": (_EQUIVALENCE, check_thm15,
            "Pairwise T0 holds iff each pair is split by a set open on one side or closed on the other."),
        "REM-16": (_IMPLICATION, check_rem16,
            "A one-sided T0 topology forces pairwise T0, and pairwise T1 forces pairwise T0."),
        "THM-18": (_IMPLICATION, check_thm18,
            "In a pairwise T0 space, for each pair some labeling has one point outside the other's closure."),
        "THM-20": (_IMPLICATION, check_thm20,
            "Pairwise T0 plus pairwise symmetric implies pairwise T1."),
        "THM-21": (_IMPLICATION, check_thm21,
            "Pairwise T1 forces every singleton to be closed on at least one side."),
        "NOTE-23": (_IMPLICATION, check_note23,
            "If every singleton is closed on both sides, the space is pairwise T1."),
        "THM-28": (_EQUIVALENCE, check_thm28,
            "Pairwise T1/2 iff every singleton not closed on side j is open on side i."),
        "COR-29": (_EQUIVALENCE, check_cor29,
            "Pairwise T1/2 iff every singleton not open on side i is closed on side j."),
        "THM-30": (_EQUIVALENCE, check_thm30,
            "Per side: singletons open-here-or-closed-there iff every g-closed set is closed."),
        "REM-32": (_EQUIVALENCE, check_rem32,
            "Pairwise T1/2 iff each singleton is (mu1-open or mu2-closed) and (mu2-open or mu1-closed)."),
        "THM-33-LITERAL": (_EQUIVALENCE, check_thm33_literal,
            "Pairwise T1/2 iff each singleton is open or closed within the same topology (literal reading)."),
        "THM-33-CROSS": (_EQUIVALENCE, check_rem32,
            "Pairwise T1/2 iff the cross-index singleton conditions hold (reading via the two-condition rule)."),
        "THM-34": (_IMPLICATION, check_thm34,
            "Pairwise T1/2 forces every singleton to be one of: open on either side, closed on either side."),
        "REM-37": (_IMPLICATION, check_rem37,
            "Pairwise T1/2 implies pairwise T0."),
        "THM-40": (_IMPLICATION, check_thm40,
            "λ-open sets wrt a fixed side are closed under arbitrary unions."),
        "REM-41": (_IMPLICATION, check_rem41,
            "The vee-sets of one topology form a generalized topology."),
        "COR-42": (_IMPLICATION, check_cor42,
            "The λ-open family wrt side i contains the i-opens and the other side's vee-sets."),
        "LEM-43": (_EQUIVALENCE, check_lem43,
            "The four characterizations of λ-closedness wrt the other side are equivalent."),
        "LEM-45": (_EQUIVALENCE, check_lem45,
            "The four characterizations of pairwise λ-closedness are equivalent."),
        "REM-46": (_EQUIVALENCE, check_rem46,
            "λ-closedness is equivalent to equaling the intersection of the closed and open hulls."),
        "OBS-39": (_IMPLICATION, check_obs39,
            "Closed sets and wedge-sets of the other side are λ-closed; neither converse holds."),
        "OBS-46": (_IMPLICATION, check_obs46,
            "λ-closed on either single side implies pairwise λ-closed; the converse fails."),
        "NOTE-47": (_IMPLICATION, check_note47,
            "The pairwise λ-open sets form a generalized topology."),
        "THM-48": (_IMPLICATION, check_thm48,
            "A set is closed iff it is both g-closed and λ-closed wrt the other side."),
        "NOTE-50": (_IMPLICATION, check_note50,
            "Every ∧12-set is pairwise λ-closed; the converse fails."),
        "THM-51": (_IMPLICATION, check_thm51,
            "Pairwise T1 makes every subset a ∧12-set."),
        "THM-52": (_IMPLICATION, check_thm52,
            "Pairwise T1/2 makes every subset pairwise λ-closed."),
        "THM-54": (_IMPLICATION, check_thm54,
            "Pairwise T1 plus pairwise λ-symmetric implies pairwise T1/2."),
        "THM-56": (_EQUIVALENCE, check_fraction_equivalence,
            "Finite-grade separation equals pairwise λ-closedness of the quantified subsets (finite case)."),
        "THM-57": (_IMPLICATION, check_thm57,
            "Pairwise T1/4 implies pairwise T0."),
        "THM-58": (_EQUIVALENCE, check_thm58,
            "Pairwise T0 iff every singleton is pairwise λ-closed."),
        "THM-60": (_EQUIVALENCE, check_fraction_equivalence,
            "Countable-grade separation equals pairwise λ-closedness of the quantified subsets (finite case)."),
        "THM-62": (_EQUIVALENCE, check_fraction_equivalence,
            "All-subsets separation equals pairwise λ-closedness of every subset."),
        "REM-63": (_IMPLICATION, check_rem63,
            "T1/2 implies T5/8 implies T3/8 implies T1/4; no converse holds in general."),
        "THM-65": (_IMPLICATION, check_thm65,
            "Pairwise T0 plus pairwise R0 implies pairwise T1."),
        "COR-67": (_CONDITIONAL, check_cor67,
            "Under pairwise R0 and pairwise λ-symmetry the six separation axioms coincide."),
    },
    "fixture": {
        "REM-24": (_IMPLICATION, check_rem24,
            "Pairwise T1 and one-sided T1 are independent (witnessed by the two- and three-point fixtures)."),
        "REM-66": (_IMPLICATION, check_rem66,
            "Pairwise T1 does not imply pairwise R0."),
    },
}

# id -> checker.  run_claims reads these at call time, so a wrapper put in
# place of an entry (bench/tracing.py times each checker so) takes effect.
_UNIVERSAL_CHECKERS = {claim_id: row[1] for claim_id, row in _CLAIMS["enumeration"].items()}
_ONCE_CHECKERS = {claim_id: row[1] for claim_id, row in _CLAIMS["fixture"].items()}

_OUT_OF_SCOPE = {
    "EX-64": "Grade-separating witness between T1/4 and T3/8; needs an infinite carrier.",
    "EX-65": "Grade-separating witness between T3/8 and T5/8; needs an infinite carrier.",
    "EX-66": "Witness for T5/8 without T1/2 on an uncountable carrier.",
}


def _records() -> list[ClaimRecord]:
    records = [
        ClaimRecord(claim_id, kind, statement, scope, checker.__name__)
        for scope, table in _CLAIMS.items()
        for claim_id, (kind, checker, statement) in table.items()
    ]
    for fixture in FIXTURES:
        records.append(
            ClaimRecord(
                f"EX-{fixture.id[1:].upper()}",
                "fixture-assertion",
                f"worked example {fixture.id}: {len(fixture.assertions)} recorded verdicts",
                f"fixture:{fixture.id}",
                "eval_fixture",
            )
        )
    for claim_id, statement in _OUT_OF_SCOPE.items():
        records.append(ClaimRecord(claim_id, "out-of-scope", statement, "none", "none"))
    return sorted(records, key=lambda r: r.id)


REGISTRY: tuple[ClaimRecord, ...] = tuple(_records())
CLAIM_IDS: tuple[str, ...] = tuple(r.id for r in REGISTRY)


def list_claims() -> tuple[ClaimRecord, ...]:
    return REGISTRY


def explain(claim_id: str) -> ClaimRecord:
    for record in REGISTRY:
        if record.id == claim_id.upper():
            return record
    raise KeyError(f"unknown claim id {claim_id!r}")


# ---------------------------------------------------------------------------
# fixture assertion evaluation (shared with the CLI check command)


def eval_predicate(space: GbtSpace, predicate: str, args: dict) -> object:
    """Evaluate a named predicate on a space; returns a bool or a label tuple."""

    def subset(key: str = "set") -> Subset:
        return parse_subset(args[key], space.ground)

    side = args.get("side")
    if predicate == "g-closed-wrt":
        return gbt.is_g_closed_wrt(space, side, subset())
    if predicate == "g-open-wrt":
        return gbt.is_g_open_wrt(space, side, subset())
    if predicate == "lambda-closed-wrt":
        return gbt.is_lambda_closed_wrt(space, side, subset())
    if predicate == "lambda-open-wrt":
        return gbt.is_lambda_open_wrt(space, side, subset())
    if predicate == "pairwise-lambda-closed":
        return gbt.is_pairwise_lambda_closed(space, subset())
    if predicate == "pairwise-lambda-open":
        return gbt.is_pairwise_lambda_open(space, subset())
    if predicate == "wedge12-set":
        return gbt.is_wedge12_set(space, subset())
    if predicate == "mu-closed":
        return is_closed(space.side(side), subset())
    if predicate == "mu-open":
        return is_open(space.side(side), subset())
    if predicate == "wedge-set":
        return is_wedge_set(space.side(side), subset())
    if predicate == "vee-set":
        return is_vee_set(space.side(side), subset())
    if predicate == "closure-equals":
        return closure(space.side(side), subset()).labels()
    if predicate == "gap-has-no-closed":
        t_in = space.side(side)
        t_other = space.side(3 - side)
        a = subset().bits
        gap = t_in.closure_table[a] & ~a
        return not any(f and f & ~gap == 0 for f in t_other.closed_masks)
    if predicate == "gt-T0":
        return is_gt_T0(space.side(side))
    if predicate == "gt-T1":
        return is_gt_T1(space.side(side))
    if predicate == "weakly-separated":
        return gbt.are_weakly_separated(space.side(side), subset(), subset("set2"))
    if predicate == "singletons-closed-somewhere":
        full = space.ground.full_mask
        return all(
            (full ^ (1 << x)) in space.mu1.open_mask_set
            or (full ^ (1 << x)) in space.mu2.open_mask_set
            for x in range(space.ground.size)
        )
    if predicate == "singletons-open-or-closed":
        t_open = space.side(args["open_side"])
        t_closed = space.side(args["closed_side"])
        full = space.ground.full_mask
        return all(
            (1 << x) in t_open.open_mask_set or (full ^ (1 << x)) in t_closed.open_mask_set
            for x in range(space.ground.size)
        )
    if predicate == "singletons-four-kind":
        full = space.ground.full_mask
        kinds = space.mu1.open_mask_set | space.mu2.open_mask_set
        return all(
            (1 << x) in kinds or (full ^ (1 << x)) in kinds
            for x in range(space.ground.size)
        )
    try:
        axiom = normalize_axiom_name(predicate)
    except Exception:
        raise KeyError(f"unknown predicate {predicate!r}") from None
    if axiom in AXIOM_NAMES:
        return axiom_profile(space).as_dict()[axiom]
    raise KeyError(f"unknown predicate {predicate!r}")


def _mismatch_detail(space: GbtSpace, assertion: Assertion, actual: object) -> str:
    detail = (
        f"{assertion.describe()}: recorded {assertion.expected!r}, engine computed {actual!r}"
    )
    side = assertion.arg("side")
    labels = assertion.arg("set")
    if side in (1, 2) and labels is not None:
        a = parse_subset(labels, space.ground)
        cl = closure(space.side(side), a)
        wd = wedge(space.side(3 - side), a)
        detail += f" [closure on side {side}: {cl!r}; wedge on side {3 - side}: {wd!r}]"
    return detail


def eval_fixture(fixture: Fixture) -> tuple[str, list[str]]:
    """Recompute every recorded verdict; returns (status, mismatch details)."""
    space = fixture.space()
    mismatches = []
    for assertion in fixture.assertions:
        actual = eval_predicate(space, assertion.predicate, dict(assertion.args))
        expected = assertion.expected
        if isinstance(expected, tuple) and isinstance(actual, tuple):
            match = tuple(expected) == tuple(actual)
        else:
            match = actual == expected
        if not match:
            mismatches.append(_mismatch_detail(space, assertion, actual))
    return (STATUS_VERIFIED if not mismatches else STATUS_MISMATCH), mismatches


# ---------------------------------------------------------------------------
# runner


def _random_n4_spaces(samples: int, seed: int):
    gts = gts_on(4)
    g = gts[0].ground
    rng = Random(seed)
    for _ in range(samples):
        yield GbtSpace(g, gts[rng.randrange(len(gts))], gts[rng.randrange(len(gts))])


def run_claims(
    n_scope: int = 3,
    fixture_filter: str | None = None,
    n4_samples: int = 1000,
    seed: int = 20240801,
) -> list[ClaimReport]:
    """Check every registered claim; reports are ordered by claim id.

    Universal claims sweep all canonical spaces up to ``n_scope`` and are
    then spot-checked on ``n4_samples`` random labeled four-point spaces
    (deterministic in ``seed``).  Fixture claims are evaluated pointwise.
    """
    check_size(n_scope)
    violations: dict[str, str] = {}
    checked: dict[str, int] = {claim_id: 0 for claim_id in _UNIVERSAL_CHECKERS}
    elapsed: dict[str, float] = {claim_id: 0.0 for claim_id in _UNIVERSAL_CHECKERS}

    def sweep(spaces):
        for space in spaces:
            ctx = SpaceContext(space)
            for claim_id, checker in _UNIVERSAL_CHECKERS.items():
                if claim_id in violations:
                    continue
                start = time.perf_counter()
                result = checker(ctx)
                elapsed[claim_id] += time.perf_counter() - start
                checked[claim_id] += 1
                if result is not None:
                    violations[claim_id] = result

    for n in range(1, n_scope + 1):
        sweep(enumerate_gbt_pairs(n))
    if n4_samples:
        sweep(_random_n4_spaces(n4_samples, seed))

    reports = []
    for claim_id in _UNIVERSAL_CHECKERS:
        witness = violations.get(claim_id)
        status = STATUS_VERIFIED if witness is None else STATUS_REFUTED
        reports.append(ClaimReport(claim_id, status, witness, checked[claim_id], elapsed[claim_id]))

    for claim_id, checker in _ONCE_CHECKERS.items():
        start = time.perf_counter()
        result = checker()
        status = STATUS_VERIFIED if result is None else STATUS_REFUTED
        reports.append(ClaimReport(claim_id, status, result, 1, time.perf_counter() - start))

    for fixture in FIXTURES:
        if fixture_filter is not None and fixture.id != fixture_filter.lower():
            continue
        start = time.perf_counter()
        status, mismatches = eval_fixture(fixture)
        witness = None
        if mismatches:
            witness = "; ".join(mismatches)
            if fixture.id == "e14":
                union_hit, _ = find_g_union_violation(3)
                inter_hit, _ = find_g_intersection_violation(3)
                extras = []
                if union_hit is not None:
                    extras.append(f"independent union witness: {union_hit.description}")
                if inter_hit is not None:
                    extras.append(f"independent intersection witness: {inter_hit.description}")
                if extras:
                    witness += " | " + " | ".join(extras)
        reports.append(
            ClaimReport(
                f"EX-{fixture.id[1:].upper()}",
                status,
                witness,
                1,
                time.perf_counter() - start,
            )
        )

    for claim_id in _OUT_OF_SCOPE:
        reports.append(ClaimReport(claim_id, STATUS_OUT_OF_SCOPE, None, 0, 0.0))

    reports.sort(key=lambda r: r.id)
    if fixture_filter is not None:
        wanted = f"EX-{fixture_filter[1:].upper()}"
        reports = [r for r in reports if r.id == wanted]
    return reports


def expected_statuses() -> dict[str, str]:
    with resources.files("gbtlab").joinpath("data/claim_expectations.json").open() as handle:
        return json.load(handle)


def statuses_match_expectations(reports: list[ClaimReport]) -> tuple[bool, list[str]]:
    expected = expected_statuses()
    deviations = []
    for report in reports:
        want = expected.get(report.id)
        if want is None:
            deviations.append(f"{report.id}: no recorded expectation")
        elif report.status != want:
            deviations.append(f"{report.id}: expected {want}, got {report.status}")
    return (not deviations), deviations
