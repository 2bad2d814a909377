"""Machine-checkable registry of the theory's claims.

Each record is one proposition about generalized bitopological spaces:
a universal implication or equivalence (checked on every canonical space
in scope, then spot-checked on random larger spaces), a conditional
closure statement, a fixture assertion (a worked example's stated
verdict, recomputed by the engine), or an out-of-scope note for claims
that need an infinite carrier.  A swept space's verdicts are its verdict
word (``mining.verdict_words``), the fixtures' are ``axiom_profile``'s,
and recorded verdicts are data.  The universal claims that read only
verdicts are rows of one implication table, ``IMPLICATION_ROWS``, and
thirteen family claims are kernels of ``claim_kernels``.  A disagreement on
a fixture is reported as a fixture mismatch, not raised as an error, so
errata in the source examples surface as findings.

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
from functools import cached_property
from random import Random
from typing import NamedTuple

from . import gbt
from .axioms import (
    AXIOM_BITS,
    AXIOM_NAMES,
    CHAIN,
    InternalDisagreementError,
    axiom_profile,
    breaks,
    chain_links,
    # unused here; bench/tracing.py patches them, and they go with it
    decide_all_lambda,
    decide_t0,
    decide_t_half,
    implication_masks,
    normalize_axiom_name,
    profile_word,
    t0_by_one_point_sets,
    t0_by_singletons,
    t_fraction_by_definition,
    t_half_by_definition,
)
from .enumeration import canonical_pair_indices, check_size, gts_on
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
    union_closed,
    validate_gt,
    wedge,
)
from .mining import verdict_words
from .mining import find_g_intersection_violation, find_g_union_violation
from .records import Record
from .sets import complemented, members, parse_subset

STATUS_VERIFIED = "verified"
STATUS_REFUTED = "refuted-with-witness"
STATUS_MISMATCH = "fixture-mismatch"
STATUS_OUT_OF_SCOPE = "out-of-scope"


class ClaimRecord(NamedTuple):
    id: str
    kind: str
    statement: str
    scope: str
    checker: str

    def as_dict(self) -> dict:
        return self._asdict()


class ClaimReport(Record):
    _fields = ("id", "status", "witness", "spaces_checked", "elapsed")

    def __init__(self, id: str, status: str, witness: str | None, spaces_checked: int, elapsed: float) -> None:
        self._fill(id, status, witness, spaces_checked, elapsed)

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "witness": self.witness,
            "spaces_checked": self.spaces_checked,
        }


class SpaceContext:
    """One space with everything the claim checkers share.

    The subset families are the space's and its topologies' cached family
    masks (``GbtSpace.g_closed``, ``GeneralizedTopology.wedge_sets``, ...),
    keyed by side and read when the context is made.  The verdicts are its
    ``word`` (bits as ``axioms.AXIOM_BITS``): a sweep passes it in from
    ``mining.verdict_words``, a context made alone reads it from its own
    ``profile``, on any number of points.  ``verified`` maps a one-topology
    claim to the topologies that already passed it, keyed by ``id`` (the
    value keeps the topology, so the id stays its own); a sweep shares one
    such dict among all its spaces, whose topologies are the shared objects
    of ``gts_on``.
    """

    def __init__(self, space: GbtSpace, verified: dict[str, dict] | None = None, word: int | None = None):
        self.space = space
        self.t1 = space.mu1
        self.t2 = space.mu2
        self.size = space.ground.size
        self.full = space.ground.full_mask
        self.subsets = range(self.full + 1)
        self.label = space.ground.label
        self.verified = {} if verified is None else verified
        self.g_closed: dict[int, int] = space.g_closed
        self.lambda_closed: dict[int, int] = space.lambda_closed
        self.pairwise_lambda: int = space.pairwise_lambda_closed
        self.wedge_sets = {1: self.t1.wedge_sets, 2: self.t2.wedge_sets}
        self.vee_sets = {1: self.t1.vee_sets, 2: self.t2.vee_sets}
        if word is not None:
            self.word = word

    def sides(self):
        return self.space.sides()

    @cached_property
    def g_open(self) -> dict[int, int]:
        return {i: complemented(family, self.size) for i, family in self.g_closed.items()}

    def unverified_sides(self, claim_id: str):
        """(i, mu_i) for the sides whose topology has not yet passed the
        one-topology claim; a topology counts as passed once the caller
        asks for the next side, so a side that yields a witness does not."""
        done = self.verified.setdefault(claim_id, {})
        for i, t, _ in self.sides():
            if done.get(id(t)) is not t:
                yield i, t
                done[id(t)] = t

    def where(self, detail: str) -> str:
        return f"{self.space!r}: {detail}"

    @cached_property
    def profile(self):
        # a context made alone reads its word from it; bench/worker.py reads it too
        return axiom_profile(self.space)

    @cached_property
    def word(self) -> int:
        return profile_word(self.profile)

    def holds(self, axiom: str) -> bool:
        return bool(self.word & AXIOM_BITS[axiom])

    @property
    def all_lambda(self) -> bool:
        return self.holds("T1_4")

    @cached_property
    def fraction_definitional(self) -> bool:
        return t_fraction_by_definition(self.space)

    @cached_property
    def t_half_definitional(self) -> bool:
        return t_half_by_definition(self.space)


# ---------------------------------------------------------------------------
# Claims that read only verdicts: id -> (links, detail), a link (antecedent
# axioms, consequent axiom), violated where the verdict word ``breaks`` one.
# COR-67's six axioms are equal iff no link of their cycle breaks.  T1/4, T3/8
# and T5/8 share one word bit, so REM-63's links from T5/8 on cannot break.
IMPLICATION_ROWS = {
    "REM-16": (chain_links(("T1", "T0")), "pairwise T1 without pairwise T0"),
    "THM-20": ([(("T0", "SYM"), "T1")], "T0 and symmetric but not T1"),
    "REM-37": (chain_links(("T1_2", "T0")), "T1/2 without T0"),
    "THM-52": (chain_links(("T1_2", "T1_4")), "T1/2 but some subset is not pairwise λ-closed"),
    "THM-54": ([(("T1", "LSYM"), "T1_2")], "T1 and λ-symmetric but not T1/2"),
    "THM-57": (chain_links(CHAIN[3:]), "T1/4 without T0"),
    "REM-63": (chain_links(CHAIN[:4]), "separation chain broken"),
    "THM-65": ([(("T0", "R0"), "T1")], "T0 and R0 but not T1"),
    "COR-67": (chain_links(("T0", "T1", "T1_2", "T5_8", "T3_8", "T1_4", "T0"), "R0", "LSYM"),
        "R0 and λ-symmetric but the six axioms are not equivalent"),
}


def _row_checker(claim_id: str):
    """A row's checker, with the name that ``claims --list`` prints."""
    links, detail = IMPLICATION_ROWS[claim_id]
    masks = implication_masks(links)

    def check(ctx: SpaceContext) -> str | None:
        return ctx.where(detail) if breaks(ctx.word, masks) else None

    check.__name__ = "check_" + claim_id.lower().replace("-", "")
    return check


_REM16_ROW = _row_checker("REM-16")


# ---------------------------------------------------------------------------
# universal / equivalence / conditional checkers: return None when the claim
# holds on the given space, otherwise a description of the first violation.
# Family checks are mask operations; a witness names the least offending
# subset.  LEM-7, REM-41 and REM-46's hull scans read one topology and check
# each topology once per sweep.


def check_lem7(ctx: SpaceContext) -> str | None:
    for i, t in ctx.unverified_sides("LEM-7"):
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
            for x in range(ctx.size):
                b = a | 1 << x
                if b != a and (w[a] & ~w[b] or v[a] & ~v[b]):
                    return ctx.where(f"side {i}: wedge/vee not monotone at {ctx.label(a)}")
    return None


def check_rem9(ctx: SpaceContext) -> str | None:
    for i, ta, tb in ctx.sides():
        g = ctx.g_closed[i]
        missing = ta.closed_family & ~g
        if missing:
            return ctx.where(f"mu{i}-closed {ctx.label(members(missing)[0])} is not g-closed")
        unclosed = g & tb.open_family & ~ta.closed_family
        if unclosed:
            a = members(unclosed)[0]
            return ctx.where(f"{ctx.label(a)} g-closed on side {i} and open on the other side but not closed")
    return None


def check_note10(ctx: SpaceContext) -> str | None:
    for i, ta, tb in ctx.sides():
        wedge_sets = ctx.wedge_sets[3 - i]
        # the first subset whose wedge is no wedge-set, and the wedge-sets on
        # which g-closed and closed differ; the lesser subset is reported
        escape = next((a for a, w in enumerate(tb.wedge_table) if not wedge_sets >> w & 1), ctx.full + 1)
        differs = members((ctx.g_closed[i] ^ ta.closed_family) & wedge_sets)
        if differs and differs[0] < escape:
            a = differs[0]
            g, closed = bool(ctx.g_closed[i] >> a & 1), bool(ta.closed_family >> a & 1)
            return ctx.where(f"wedge-set {ctx.label(a)}: g-closed({g}) != closed({closed}) on side {i}")
        if escape <= ctx.full:
            return ctx.where(f"wedge of {ctx.label(escape)} is not itself a wedge-set")
    return None


def check_thm12(ctx: SpaceContext) -> str | None:
    for i, ta, tb in ctx.sides():
        for a in members(ctx.g_closed[i]):
            inside = gbt.closed_in_gap(ta, tb, a)
            if inside:
                # name the least closed set in the gap, in ascending mask order
                cl = tb.closure_table
                f = next(f for f in range(1, inside + 1) if f & ~inside == 0 and cl[f] == f)
                return ctx.where(
                    f"g-closed {ctx.label(a)} (side {i}) has closed {ctx.label(f)} in its closure gap"
                )
    return None


def check_union_g_conditional(ctx: SpaceContext) -> str | None:
    for i, ta, _ in ctx.sides():
        g = ctx.g_closed[i]
        closed = ta.closed_masks
        # union_closed also asks for ∅, which unions of two members need not give
        hypothesis = all(g >> (c1 | c2) & 1 for c1 in closed for c2 in closed)
        if hypothesis and not union_closed(g | 1, ctx.size):
            g_masks = members(g)
            for a in g_masks:
                for b in g_masks:
                    if not g >> (a | b) & 1:
                        return ctx.where(
                            f"side {i}: closed-union hypothesis holds but "
                            f"{ctx.label(a)} ∪ {ctx.label(b)} escapes the g-closed family"
                        )
    return None


def check_union_weakly_separated(ctx: SpaceContext) -> str | None:
    for i, _, tb in ctx.sides():
        g_open = ctx.g_open[i]
        cl = tb.closure_table
        for a in members(g_open):
            # a b that meets cl_j(a) is not weakly separated from a
            rest = ctx.full & ~cl[a]
            b = rest
            while True:
                if g_open >> b & 1 and not g_open >> (a | b) & 1 and gbt.weakly_separated(tb, a, b):
                    return ctx.where(
                        f"side {i}: weakly separated g-open {ctx.label(a)}, {ctx.label(b)} "
                        f"have non-g-open union"
                    )
                if b == 0:
                    break
                b = (b - 1) & rest
    return None


def check_thm15(ctx: SpaceContext) -> str | None:
    if ctx.holds("T0") != t0_by_one_point_sets(ctx.space):
        return ctx.where("T0 differs from the one-point-set characterization")
    return None


def check_rem16(ctx: SpaceContext) -> str | None:
    if not ctx.holds("T0") and (is_gt_T0(ctx.t1) or is_gt_T0(ctx.t2)):
        return ctx.where("one topology is T0 but the space is not pairwise T0")
    return _REM16_ROW(ctx)


def check_thm18(ctx: SpaceContext) -> str | None:
    if not ctx.holds("T0"):
        return None
    cl1, cl2 = ctx.t1.closure_table, ctx.t2.closure_table
    for x, y in itertools.combinations(range(ctx.space.ground.size), 2):
        p, q = 1 << x, 1 << y
        if cl1[q] & p and cl2[p] & q and cl1[p] & q and cl2[q] & p:
            return ctx.where(f"T0 space where both closures glue the pair bit{x},bit{y}")
    return None


def check_thm21(ctx: SpaceContext) -> str | None:
    if ctx.holds("T1") and ctx.t1.closed_points | ctx.t2.closed_points != ctx.full:
        return ctx.where("T1 but some singleton closed on neither side")
    return None


def check_note23(ctx: SpaceContext) -> str | None:
    if ctx.t1.closed_points & ctx.t2.closed_points == ctx.full and not ctx.holds("T1"):
        return ctx.where("all singletons closed on both sides but not T1")
    return None


def check_thm28(ctx: SpaceContext) -> str | None:
    t1, t2 = ctx.t1, ctx.t2
    rule = (t2.closed_points | t1.open_points) & (t1.closed_points | t2.open_points) == ctx.full
    if rule != ctx.t_half_definitional:
        return ctx.where(f"T1/2 definitional={ctx.t_half_definitional} but singleton rule={rule}")
    return None


def check_cor29(ctx: SpaceContext) -> str | None:
    t1, t2 = ctx.t1, ctx.t2
    rule = ctx.full & (~t1.open_points & ~t2.closed_points | ~t2.open_points & ~t1.closed_points) == 0
    if rule != ctx.t_half_definitional:
        return ctx.where("contrapositive singleton rule disagrees with definitional T1/2")
    return None


def check_thm30(ctx: SpaceContext) -> str | None:
    for i, ta, tb in ctx.sides():
        singles = ta.open_points | tb.closed_points == ctx.full
        g_is_closed = ctx.g_closed[i] & ~ta.closed_family == 0
        if singles != g_is_closed:
            return ctx.where(
                f"side {i}: singleton condition={singles} but g-closed-implies-closed={g_is_closed}"
            )
    return None


def check_rem32(ctx: SpaceContext) -> str | None:
    if ctx.holds("T1_2") != ctx.t_half_definitional:
        return ctx.where("two-condition singleton rule disagrees with definitional T1/2")
    return None


def check_thm33_literal(ctx: SpaceContext) -> str | None:
    t1, t2 = ctx.t1, ctx.t2
    literal = (t1.open_points | t1.closed_points) & (t2.open_points | t2.closed_points) == ctx.full
    if literal != ctx.t_half_definitional:
        return ctx.where(
            f"same-index singleton condition={literal} but definitional T1/2={ctx.t_half_definitional}"
        )
    return None


def check_thm34(ctx: SpaceContext) -> str | None:
    if not ctx.holds("T1_2"):
        return None
    t1, t2 = ctx.t1, ctx.t2
    none = ctx.full & ~(t1.open_points | t2.open_points | t1.closed_points | t2.closed_points)
    if none:
        x = (none & -none).bit_length() - 1
        return ctx.where(f"T1/2 but singleton bit{x} is none of the four kinds")
    return None


def _open_family_fault(ctx: SpaceContext, closed_family: int, validate, *args) -> str | None:
    """None when the complements of ``closed_family`` form a generalized
    topology, else the error that ``validate(*args)``, the route through
    ``validate_gt``, raises on them."""
    if union_closed(complemented(closed_family, ctx.size), ctx.size):
        return None
    try:
        validate(*args)
    except ValueError as exc:
        return str(exc)
    raise InternalDisagreementError(f"union-closure pass and validate_gt disagree on {ctx.space!r}")


def check_thm40(ctx: SpaceContext) -> str | None:
    for i in (1, 2):
        fault = _open_family_fault(ctx, ctx.space.lambda_closed[i], gbt.lambda_open_family_wrt, ctx.space, i)
        if fault:
            return ctx.where(f"λ-open family wrt side {i} is not a generalized topology: {fault}")
    return None


def check_rem41(ctx: SpaceContext) -> str | None:
    for i, t in ctx.unverified_sides("REM-41"):
        try:
            validate_gt(ctx.space.ground, members(t.vee_sets))
        except Exception as exc:
            return ctx.where(f"vee-family of side {i} is not a generalized topology: {exc}")
    return None


def check_cor42(ctx: SpaceContext) -> str | None:
    for i, ti, tj in ctx.sides():
        family = complemented(ctx.lambda_closed[i], ctx.size)
        if ti.open_family & ~family:
            return ctx.where(f"λ-open family wrt side {i} misses an open set")
        if ctx.vee_sets[3 - i] & ~family:
            return ctx.where(f"λ-open family wrt side {i} misses a vee-set of the other side")
    return None


def _forms_disagree(forms: tuple[int, int, int, int]) -> tuple[int, str] | None:
    """Least subset on which the four form masks differ, with its verdicts."""
    f4 = forms[3]
    differs = (forms[0] ^ f4) | (forms[1] ^ f4) | (forms[2] ^ f4)
    if not differs:
        return None
    a = members(differs)[0]
    return a, ",".join(str(bool(f >> a & 1)) for f in forms)


def check_lem43(ctx: SpaceContext) -> str | None:
    for i in (1, 2):
        found = _forms_disagree(gbt.lambda_closed_forms(ctx.space, i))
        if found:
            a, verdicts = found
            return ctx.where(f"λ-closed forms disagree at {ctx.label(a)} side {i}: ({verdicts})")
    return None


def check_lem45(ctx: SpaceContext) -> str | None:
    found = _forms_disagree(gbt.pairwise_lambda_closed_forms(ctx.space))
    if found:
        a, verdicts = found
        return ctx.where(f"pairwise λ-closed forms disagree at {ctx.label(a)}: ({verdicts})")
    return None


def check_rem46(ctx: SpaceContext) -> str | None:
    for _, t in ctx.unverified_sides("REM-46"):
        for a in ctx.subsets:
            hull_closed = ctx.full
            for c in t.closed_masks:
                if a & ~c == 0:
                    hull_closed &= c
            hull_open = ctx.full
            for u in t.opens:
                if a & ~u == 0:
                    hull_open &= u
            if hull_closed != t.closure_table[a] or hull_open != t.wedge_table[a]:
                return ctx.where(f"hull recomputation differs from tables at {ctx.label(a)}")
    for i, ta, tb in ctx.sides():
        cl, wd, lam = ta.closure_table, tb.wedge_table, ctx.lambda_closed[i]
        for a in ctx.subsets:
            if (cl[a] & wd[a] == a) != bool(lam >> a & 1):
                return ctx.where(f"intersection-of-hulls reading fails at {ctx.label(a)}")
    return None


def check_obs39(ctx: SpaceContext) -> str | None:
    for i, ta, _ in ctx.sides():
        lam = ctx.lambda_closed[i]
        missing = ta.closed_family & ~lam
        if missing:
            return ctx.where(f"closed {ctx.label(members(missing)[0])} not λ-closed on side {i}")
        missing = ctx.wedge_sets[3 - i] & ~lam
        if missing:
            return ctx.where(f"wedge-set {ctx.label(members(missing)[0])} not λ-closed wrt side {3 - i}")
    return None


def check_obs46(ctx: SpaceContext) -> str | None:
    escaped = (ctx.lambda_closed[1] | ctx.lambda_closed[2]) & ~ctx.pairwise_lambda
    if escaped:
        return ctx.where(f"one-sided λ-closed {ctx.label(members(escaped)[0])} not pairwise λ-closed")
    return None


def check_note47(ctx: SpaceContext) -> str | None:
    fault = _open_family_fault(ctx, ctx.space.pairwise_lambda_closed, gbt.pairwise_lambda_open_family, ctx.space)
    if fault:
        return ctx.where(f"pairwise λ-open family is not a generalized topology: {fault}")
    return None


def check_thm48(ctx: SpaceContext) -> str | None:
    for i, ta, _ in ctx.sides():
        g_and_lambda = ctx.g_closed[i] & ctx.lambda_closed[i]
        differs = ta.closed_family ^ g_and_lambda
        if differs:
            a = members(differs)[0]
            closed, both = bool(ta.closed_family >> a & 1), bool(g_and_lambda >> a & 1)
            return ctx.where(f"side {i}, {ctx.label(a)}: closed={closed} but g∧λ={both}")
    return None


def check_note50(ctx: SpaceContext) -> str | None:
    escaped = ctx.space.wedge12_sets & ~ctx.pairwise_lambda
    if escaped:
        return ctx.where(f"∧12-set {ctx.label(members(escaped)[0])} not pairwise λ-closed")
    return None


def check_thm51(ctx: SpaceContext) -> str | None:
    if not ctx.holds("T1"):
        return None
    missing = ~ctx.space.wedge12_sets & ((1 << ctx.space.n_subsets) - 1)
    if missing:
        return ctx.where(f"T1 but {ctx.label(members(missing)[0])} is not a ∧12-set")
    return None


def check_fraction_equivalence(ctx: SpaceContext) -> str | None:
    if ctx.fraction_definitional != ctx.all_lambda:
        return ctx.where(
            f"four-kind separation={ctx.fraction_definitional} but λ-scan={ctx.all_lambda}"
        )
    return None


def check_thm58(ctx: SpaceContext) -> str | None:
    if ctx.holds("T0") != t0_by_singletons(ctx.space):
        return ctx.where("T0 differs from singleton pairwise-λ-closedness")
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
# "enumeration" checkers take a SpaceContext and run on every swept space
# (a kernel claim's at its kernel's first failing pair only); the "fixture"
# checkers take nothing and run once on corpus spaces.
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
        "THM-20": (_IMPLICATION, _row_checker("THM-20"),
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
        "REM-37": (_IMPLICATION, _row_checker("REM-37"),
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
        "THM-52": (_IMPLICATION, _row_checker("THM-52"),
            "Pairwise T1/2 makes every subset pairwise λ-closed."),
        "THM-54": (_IMPLICATION, _row_checker("THM-54"),
            "Pairwise T1 plus pairwise λ-symmetric implies pairwise T1/2."),
        "THM-56": (_EQUIVALENCE, check_fraction_equivalence,
            "Finite-grade separation equals pairwise λ-closedness of the quantified subsets (finite case)."),
        "THM-57": (_IMPLICATION, _row_checker("THM-57"),
            "Pairwise T1/4 implies pairwise T0."),
        "THM-58": (_EQUIVALENCE, check_thm58,
            "Pairwise T0 iff every singleton is pairwise λ-closed."),
        "THM-60": (_EQUIVALENCE, check_fraction_equivalence,
            "Countable-grade separation equals pairwise λ-closedness of the quantified subsets (finite case)."),
        "THM-62": (_EQUIVALENCE, check_fraction_equivalence,
            "All-subsets separation equals pairwise λ-closedness of every subset."),
        "REM-63": (_IMPLICATION, _row_checker("REM-63"),
            "T1/2 implies T5/8 implies T3/8 implies T1/4; no converse holds in general."),
        "THM-65": (_IMPLICATION, _row_checker("THM-65"),
            "Pairwise T0 plus pairwise R0 implies pairwise T1."),
        "COR-67": (_CONDITIONAL, _row_checker("COR-67"),
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


# Predicate name -> (argument names, evaluator).  The evaluator takes the
# space, then the arguments in that order: "side" as given, "set" and
# "set2" parsed to subsets.  Entries that reach a name bench/tracing.py
# patches in this module (is_gt_T0, axiom_profile, ...) look it up when
# called, so its wrappers count the calls.
_SIDE_SET = ("side", "set")
_PREDICATES = {
    "g-closed-wrt": (_SIDE_SET, gbt.is_g_closed_wrt),
    "g-open-wrt": (_SIDE_SET, gbt.is_g_open_wrt),
    "lambda-closed-wrt": (_SIDE_SET, gbt.is_lambda_closed_wrt),
    "lambda-open-wrt": (_SIDE_SET, gbt.is_lambda_open_wrt),
    "pairwise-lambda-closed": (("set",), gbt.is_pairwise_lambda_closed),
    "pairwise-lambda-open": (("set",), gbt.is_pairwise_lambda_open),
    "wedge12-set": (("set",), gbt.is_wedge12_set),
    "mu-closed": (_SIDE_SET, lambda s, i, a: is_closed(s.side(i), a)),
    "mu-open": (_SIDE_SET, lambda s, i, a: is_open(s.side(i), a)),
    "wedge-set": (_SIDE_SET, lambda s, i, a: is_wedge_set(s.side(i), a)),
    "vee-set": (_SIDE_SET, lambda s, i, a: is_vee_set(s.side(i), a)),
    "closure-equals": (_SIDE_SET, lambda s, i, a: closure(s.side(i), a).labels()),
    "gap-has-no-closed": (_SIDE_SET, lambda s, i, a: not gbt.closed_in_gap(s.side(i), s.side(3 - i), a.bits)),
    "gt-T0": (("side",), lambda s, i: is_gt_T0(s.side(i))),
    "gt-T1": (("side",), lambda s, i: is_gt_T1(s.side(i))),
    "weakly-separated": (("side", "set", "set2"), lambda s, i, a, b: gbt.are_weakly_separated(s.side(i), a, b)),
    "singletons-closed-somewhere": (
        (),
        lambda s: s.mu1.closed_points | s.mu2.closed_points == s.ground.full_mask,
    ),
    # open on side i, closed on the other side: THM-30's per-side condition
    "singletons-open-or-closed": (
        ("side",),
        lambda s, i: s.side(i).open_points | s.side(3 - i).closed_points == s.ground.full_mask,
    ),
    "singletons-four-kind": (
        (),
        lambda s: s.mu1.open_points | s.mu2.open_points | s.mu1.closed_points | s.mu2.closed_points
        == s.ground.full_mask,
    ),
    **{name: ((), lambda s, name=name: axiom_profile(s).as_dict()[name]) for name in AXIOM_NAMES},
}


def predicate_entry(predicate: str):
    """(argument names, evaluator) of a named predicate; an axiom may be
    named by any alias.  Raises KeyError for an unknown name."""
    if predicate not in _PREDICATES:
        try:
            predicate = normalize_axiom_name(predicate)
        except ValueError:
            raise KeyError(f"unknown predicate {predicate!r}") from None
    return _PREDICATES[predicate]


def eval_predicate(space: GbtSpace, predicate: str, args: dict) -> object:
    """Evaluate a named predicate on a space; returns a bool or a label tuple."""
    names, evaluate = predicate_entry(predicate)
    values = (args[k] if k == "side" else parse_subset(args[k], space.ground) for k in names)
    return evaluate(space, *values)


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


# spaces whose contexts a sweep builds before running the checkers over them
SWEEP_CHUNK = 32


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
    Both scopes may be 0; a negative one raises ValueError.
    """
    for name, value in (("n", n_scope), ("n4_samples", n4_samples)):
        if value < 0:
            raise ValueError(f"{name} must be at least 0, got {value}")
    check_size(n_scope)
    # a fixture filter keeps the fixture's report only, so nothing else is checked
    reports = [] if fixture_filter is not None else _checked_reports(n_scope, n4_samples, seed)

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

    if fixture_filter is None:
        for claim_id in _OUT_OF_SCOPE:
            reports.append(ClaimReport(claim_id, STATUS_OUT_OF_SCOPE, None, 0, 0.0))

    reports.sort(key=lambda r: r.id)
    return reports


def _checked_reports(n_scope: int, n4_samples: int, seed: int) -> list[ClaimReport]:
    """The reports of the universal claims, swept over the index pairs of
    ``canonical_pair_indices`` on 1 to ``n_scope`` points and then over
    ``n4_samples`` seeded four-point index pairs, with their words from
    ``verdict_words``, and of the one-off claims."""
    from . import claim_kernels

    violations: dict[str, str] = {}
    checked: dict[str, int] = {claim_id: 0 for claim_id in _UNIVERSAL_CHECKERS}
    elapsed: dict[str, float] = {claim_id: 0.0 for claim_id in _UNIVERSAL_CHECKERS}
    verified: dict[str, dict] = {}

    def sweep(n, pairs):
        # per block: the words and kernel claims at once, the index pairs let
        # go; then checker-major over chunks, each unviolated checker in sweep
        # order up to its first violation, a kernel claim's at its hit alone
        clock = time.perf_counter
        gts = gts_on(n)
        g = gts[0].ground
        pairs = iter(pairs)
        while block := list(itertools.islice(pairs, claim_kernels.BLOCK)):
            words = bytes(verdict_words(n, block))
            firsts, seconds = [gts[i] for i, _ in block], [gts[j] for _, j in block]
            del block
            kernel_ids = [c for c in claim_kernels.KERNELS if c not in violations]
            hits = claim_kernels.first_failures(firsts, seconds, kernel_ids, elapsed)
            contexts = (SpaceContext(GbtSpace(g, t1, t2), verified, word)
                for t1, t2, word in zip(firsts, seconds, words))
            for offset in range(0, len(words), SWEEP_CHUNK):
                chunk = list(itertools.islice(contexts, SWEEP_CHUNK))
                for claim_id, checker in _UNIVERSAL_CHECKERS.items():
                    if claim_id in violations:
                        continue
                    start = clock()
                    count, spaces = len(chunk), enumerate(chunk, 1)
                    if claim_id in kernel_ids:
                        place = hits.get(claim_id, -1) - offset
                        spaces = [(place + 1, chunk[place])] if 0 <= place < count else ()
                    for position, ctx in spaces:
                        result = checker(ctx)
                        if result is not None:
                            violations[claim_id] = result
                            count = position
                            break
                        if claim_id in kernel_ids:
                            raise InternalDisagreementError(f"{claim_id}: kernel and checker disagree on {ctx.space!r}")
                    elapsed[claim_id] += clock() - start
                    checked[claim_id] += count

    for n in range(1, n_scope + 1):
        sweep(n, canonical_pair_indices(n))
    if n4_samples:
        count, rng = len(gts_on(4)), Random(seed)
        sweep(4, ((rng.randrange(count), rng.randrange(count)) for _ in range(n4_samples)))

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
    return reports


def expected_statuses() -> dict[str, str]:
    from importlib import resources

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
