"""Predicates on a space carrying an ordered pair of generalized topologies.

The side index i selects one topology, j = 3 - i the other.  All subset
inclusions are non-strict.  The canonical decision procedures are the
closed-form equality tests

* g-closed   wrt the other side:   closure_i(A) ⊆ wedge_j(A),
* λ-closed   wrt the other side:   A = closure_i(A) ∩ wedge_j(A),
* pairwise λ-closed:               A = closure_1(A) ∩ closure_2(A)
                                       ∩ wedge_1(A) ∩ wedge_2(A);

each is applied once per space, to every subset, by the cached families
``GbtSpace.g_closed``, ``lambda_closed`` and ``pairwise_lambda_closed``,
which the predicates, the λ-open families, the claim checkers and the
set-level mining queries read.  The equivalent existential decomposition
forms are oracles: ``lambda_closed_forms`` and
``pairwise_lambda_closed_forms`` decide all four forms for every subset
in one pass (the claims LEM-43 and LEM-45 and the tests compare them),
and ``g_open_by_kernels`` and ``lambda_open_by_decomposition`` are
checked by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .gt import GeneralizedTopology, gt_from_labels, validate_gt
from .sets import GroundSet, GroundSetError, Subset, ground


@dataclass(frozen=True)
class GbtSpace:
    """Ground set with two generalized topologies over it."""

    ground: GroundSet
    mu1: GeneralizedTopology
    mu2: GeneralizedTopology

    def __post_init__(self) -> None:
        if self.mu1.ground != self.ground or self.mu2.ground != self.ground:
            raise GroundSetError("both topologies must live on the space's ground set")

    def side(self, i: int) -> GeneralizedTopology:
        return self.mu1 if _side(i) == 1 else self.mu2

    def swap(self) -> GbtSpace:
        return GbtSpace(self.ground, self.mu2, self.mu1)

    def sides(self):
        """(i, mu_i, mu_j) for i = 1 and i = 2, where j is the other side."""
        return ((1, self.mu1, self.mu2), (2, self.mu2, self.mu1))

    @cached_property
    def n_subsets(self) -> int:
        return 1 << self.ground.size

    @cached_property
    def g_closed(self) -> dict[int, frozenset[int]]:
        """Per side i, the masks of the g-closed sets wrt side j."""
        return {
            i: frozenset(a for a in range(self.n_subsets) if ti.closure_table[a] & ~tj.wedge_table[a] == 0)
            for i, ti, tj in self.sides()
        }

    @cached_property
    def lambda_closed(self) -> dict[int, frozenset[int]]:
        """Per side i, the masks of the λ-closed sets wrt side j."""
        return {
            i: frozenset(a for a in range(self.n_subsets) if ti.closure_table[a] & tj.wedge_table[a] == a)
            for i, ti, tj in self.sides()
        }

    @cached_property
    def pairwise_lambda_closed(self) -> frozenset[int]:
        """Masks of the pairwise λ-closed sets."""
        cl1, cl2 = self.mu1.closure_table, self.mu2.closure_table
        w1, w2 = self.mu1.wedge_table, self.mu2.wedge_table
        return frozenset(a for a in range(self.n_subsets) if cl1[a] & cl2[a] & w1[a] & w2[a] == a)

    def __repr__(self) -> str:
        label = self.ground.label_family
        return f"GbtSpace({self.ground!r}, mu1={label(self.mu1.opens)}, mu2={label(self.mu2.opens)})"


def _side(i: int) -> int:
    if i not in (1, 2):
        raise ValueError(f"side index must be 1 or 2, got {i}")
    return i


def other(i: int) -> int:
    return 3 - _side(i)


def make_space(points, mu1_opens, mu2_opens) -> GbtSpace:
    """Space from label data; ∅ is implied in both open families."""
    g = ground(points)
    return GbtSpace(g, gt_from_labels(g, mu1_opens), gt_from_labels(g, mu2_opens))


def _pair(s: GbtSpace, i: int) -> tuple[GeneralizedTopology, GeneralizedTopology]:
    return s.side(i), s.side(other(i))


def _bits(s: GbtSpace, a: Subset) -> int:
    if a.ground != s.ground:
        raise GroundSetError("subset belongs to a different ground set")
    return a.bits


def is_g_closed_wrt(s: GbtSpace, i: int, a: Subset) -> bool:
    """closure_i(A) lies inside every j-open superset of A."""
    return _bits(s, a) in s.g_closed[_side(i)]


def is_g_open_wrt(s: GbtSpace, i: int, a: Subset) -> bool:
    return is_g_closed_wrt(s, i, Subset(_bits(s, a) ^ s.ground.full_mask, s.ground))


def g_open_by_kernels(s: GbtSpace, i: int, a: Subset) -> bool:
    """Oracle for g-open: every j-closed subset of A sits inside interior_i(A)."""
    ti, tj = _pair(s, i)
    a_bits = _bits(s, a)
    inner = ti.interior_table[a_bits]
    return all(f & ~inner == 0 for f in tj.closed_masks if f & ~a_bits == 0)


def is_lambda_closed_wrt(s: GbtSpace, i: int, a: Subset) -> bool:
    """A is exactly closure_i(A) ∩ wedge_j(A)."""
    return _bits(s, a) in s.lambda_closed[_side(i)]


def is_lambda_open_wrt(s: GbtSpace, i: int, a: Subset) -> bool:
    return is_lambda_closed_wrt(s, i, Subset(_bits(s, a) ^ s.ground.full_mask, s.ground))


def lambda_closed_forms(s: GbtSpace, i: int) -> list[tuple[bool, bool, bool, bool]]:
    """The four equivalent λ-closed characterizations of every subset, in
    order of mask; entry a holds the forms decided independently for A = a:

    (1) some i-closed F and some ∧_j-set L give A = F ∩ L,
    (2) some i-closed P gives A = P ∩ wedge_j(A),
    (3) some ∧_j-set L gives A = closure_i(A) ∩ L,
    (4) A = closure_i(A) ∩ wedge_j(A).
    """
    ti, tj = _pair(s, i)
    closed, wedge_sets, cl, w = ti.closed_masks, tj.wedge_sets, ti.closure_table, tj.wedge_table
    products = {f & l_set for f in closed for l_set in wedge_sets}
    lam = s.lambda_closed[i]
    return [
        (
            a in products,
            any(p & w[a] == a for p in closed),
            any(cl[a] & l_set == a for l_set in wedge_sets),
            a in lam,
        )
        for a in range(s.n_subsets)
    ]


def lambda_open_by_decomposition(s: GbtSpace, i: int, a: Subset) -> bool:
    """Oracle for λ-open: A = V ∪ M with V an i-open and M a ∨_j-set."""
    ti, tj = _pair(s, i)
    a_bits = _bits(s, a)
    return any(v | m == a_bits for v in ti.opens for m in tj.vee_sets)


def is_pairwise_lambda_closed(s: GbtSpace, a: Subset) -> bool:
    """A equals the four-way intersection of both closures and both wedges."""
    return _bits(s, a) in s.pairwise_lambda_closed


def is_pairwise_lambda_open(s: GbtSpace, a: Subset) -> bool:
    return is_pairwise_lambda_closed(s, Subset(_bits(s, a) ^ s.ground.full_mask, s.ground))


def pairwise_lambda_closed_forms(s: GbtSpace) -> list[tuple[bool, bool, bool, bool]]:
    """The four equivalent pairwise λ-closed characterizations of every
    subset, in order of mask, with F1 ∩ F2 ranging over the intersections
    of a 1-closed and a 2-closed set and L1 ∩ L2 over those of a ∧1-set
    and a ∧2-set:

    (1) A = (F1 ∩ F2) ∩ (L1 ∩ L2),
    (2) A = (F1 ∩ F2) ∩ (wedge_1(A) ∩ wedge_2(A)),
    (3) A = (closure_1(A) ∩ closure_2(A)) ∩ (L1 ∩ L2),
    (4) A = closure_1(A) ∩ closure_2(A) ∩ wedge_1(A) ∩ wedge_2(A).
    """
    t1, t2 = s.mu1, s.mu2
    closed12 = sorted({f1 & f2 for f1 in t1.closed_masks for f2 in t2.closed_masks})
    wedge12 = sorted({l1 & l2 for l1 in t1.wedge_sets for l2 in t2.wedge_sets})
    products = {f & l_set for f in closed12 for l_set in wedge12}
    cl1, cl2, w1, w2 = t1.closure_table, t2.closure_table, t1.wedge_table, t2.wedge_table
    lam = s.pairwise_lambda_closed
    forms = []
    for a in range(s.n_subsets):
        cl, wd = cl1[a] & cl2[a], w1[a] & w2[a]
        forms.append(
            (
                a in products,
                any(f & wd == a for f in closed12),
                any(cl & l_set == a for l_set in wedge12),
                a in lam,
            )
        )
    return forms


def is_wedge12_set(s: GbtSpace, a: Subset) -> bool:
    """A equals wedge_1(A) ∩ wedge_2(A)."""
    a_bits = _bits(s, a)
    return s.mu1.wedge_table[a_bits] & s.mu2.wedge_table[a_bits] == a_bits


def are_weakly_separated(t: GeneralizedTopology, a: Subset, b: Subset) -> bool:
    """Opens U ⊇ A and V ⊇ B exist with A ∩ V = B ∩ U = ∅."""
    a_bits, b_bits = a.bits, b.bits
    if a.ground != t.ground or b.ground != t.ground:
        raise GroundSetError("subsets belong to a different ground set")
    has_u = any(a_bits & ~u == 0 and u & b_bits == 0 for u in t.opens)
    has_v = any(b_bits & ~v == 0 and v & a_bits == 0 for v in t.opens)
    return has_u and has_v


def lambda_open_family_wrt(s: GbtSpace, i: int) -> tuple[int, ...]:
    """Masks of all λ-open sets wrt the other side; a generalized topology."""
    full = s.ground.full_mask
    return validate_gt(s.ground, [full ^ a for a in s.lambda_closed[_side(i)]]).opens


def pairwise_lambda_open_family(s: GbtSpace) -> tuple[int, ...]:
    """Masks of all pairwise λ-open sets; a generalized topology."""
    full = s.ground.full_mask
    return validate_gt(s.ground, [full ^ a for a in s.pairwise_lambda_closed]).opens
