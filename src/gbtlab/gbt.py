"""Predicates on a space carrying an ordered pair of generalized topologies.

The side index i selects one topology, j = 3 - i the other.  All subset
inclusions are non-strict.  The canonical decision procedures are the
closed-form equality tests

* g-closed   wrt the other side:   closure_i(A) ⊆ wedge_j(A),
* λ-closed   wrt the other side:   A = closure_i(A) ∩ wedge_j(A),
* pairwise λ-closed:               A = closure_1(A) ∩ closure_2(A)
                                       ∩ wedge_1(A) ∩ wedge_2(A);

the equivalent existential decomposition forms are provided as oracles
(`lambda_closed_forms`, `pairwise_lambda_closed_forms`, `g_open_by_kernels`)
and exercised by the claims runner and the test suite.
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
        if i == 1:
            return self.mu1
        if i == 2:
            return self.mu2
        raise ValueError(f"side index must be 1 or 2, got {i}")

    def swap(self) -> GbtSpace:
        return GbtSpace(self.ground, self.mu2, self.mu1)

    @cached_property
    def n_subsets(self) -> int:
        return 1 << self.ground.size

    def __repr__(self) -> str:
        label = self.ground.label_family
        return f"GbtSpace({self.ground!r}, mu1={label(self.mu1.opens)}, mu2={label(self.mu2.opens)})"


def other(i: int) -> int:
    if i not in (1, 2):
        raise ValueError(f"side index must be 1 or 2, got {i}")
    return 3 - i


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
    ti, tj = _pair(s, i)
    a_bits = _bits(s, a)
    return ti.closure_table[a_bits] & ~tj.wedge_table[a_bits] == 0


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
    ti, tj = _pair(s, i)
    a_bits = _bits(s, a)
    return ti.closure_table[a_bits] & tj.wedge_table[a_bits] == a_bits


def is_lambda_open_wrt(s: GbtSpace, i: int, a: Subset) -> bool:
    return is_lambda_closed_wrt(s, i, Subset(_bits(s, a) ^ s.ground.full_mask, s.ground))


def lambda_closed_forms(s: GbtSpace, i: int, a: Subset) -> tuple[bool, bool, bool, bool]:
    """The four equivalent λ-closed characterizations, decided independently.

    (1) some i-closed F and some ∧_j-set L give A = F ∩ L,
    (2) some i-closed P gives A = P ∩ wedge_j(A),
    (3) some ∧_j-set L gives A = closure_i(A) ∩ L,
    (4) A = closure_i(A) ∩ wedge_j(A).
    """
    ti, tj = _pair(s, i)
    a_bits = _bits(s, a)
    wedge_sets = [m for m in range(s.n_subsets) if tj.wedge_table[m] == m]
    cl = ti.closure_table[a_bits]
    wj = tj.wedge_table[a_bits]
    form1 = any(
        f & l_set == a_bits for f in ti.closed_masks for l_set in wedge_sets
    )
    form2 = any(p & wj == a_bits for p in ti.closed_masks)
    form3 = any(cl & l_set == a_bits for l_set in wedge_sets)
    form4 = cl & wj == a_bits
    return form1, form2, form3, form4


def lambda_open_by_decomposition(s: GbtSpace, i: int, a: Subset) -> bool:
    """Oracle for λ-open: A = V ∪ M with V an i-open and M a ∨_j-set."""
    ti, tj = _pair(s, i)
    a_bits = _bits(s, a)
    vee_sets = [m for m in range(s.n_subsets) if tj.vee_table[m] == m]
    return any(v | m == a_bits for v in ti.opens for m in vee_sets)


def is_pairwise_lambda_closed(s: GbtSpace, a: Subset) -> bool:
    """A equals the four-way intersection of both closures and both wedges."""
    a_bits = _bits(s, a)
    return (
        s.mu1.closure_table[a_bits]
        & s.mu2.closure_table[a_bits]
        & s.mu1.wedge_table[a_bits]
        & s.mu2.wedge_table[a_bits]
        == a_bits
    )


def is_pairwise_lambda_open(s: GbtSpace, a: Subset) -> bool:
    return is_pairwise_lambda_closed(s, Subset(_bits(s, a) ^ s.ground.full_mask, s.ground))


def pairwise_lambda_closed_forms(s: GbtSpace, a: Subset) -> tuple[bool, bool, bool, bool]:
    """The four equivalent pairwise λ-closed characterizations.

    (1) A = (F1 ∩ F2) ∩ (L1 ∩ L2) for some closed Fi and ∧-sets Li,
    (2) A = (F1 ∩ F2) ∩ (wedge_1(A) ∩ wedge_2(A)),
    (3) A = (closure_1(A) ∩ closure_2(A)) ∩ (L1 ∩ L2),
    (4) A = closure_1(A) ∩ closure_2(A) ∩ wedge_1(A) ∩ wedge_2(A).
    """
    a_bits = _bits(s, a)
    w1_sets = [m for m in range(s.n_subsets) if s.mu1.wedge_table[m] == m]
    w2_sets = [m for m in range(s.n_subsets) if s.mu2.wedge_table[m] == m]
    cl = s.mu1.closure_table[a_bits] & s.mu2.closure_table[a_bits]
    wd = s.mu1.wedge_table[a_bits] & s.mu2.wedge_table[a_bits]
    form1 = any(
        f1 & f2 & l1 & l2 == a_bits
        for f1 in s.mu1.closed_masks
        for f2 in s.mu2.closed_masks
        for l1 in w1_sets
        for l2 in w2_sets
    )
    form2 = any(f1 & f2 & wd == a_bits for f1 in s.mu1.closed_masks for f2 in s.mu2.closed_masks)
    form3 = any(cl & l1 & l2 == a_bits for l1 in w1_sets for l2 in w2_sets)
    form4 = cl & wd == a_bits
    return form1, form2, form3, form4


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
    ti, tj = _pair(s, i)
    cl, w, full = ti.closure_table, tj.wedge_table, s.ground.full_mask
    family = [full ^ a for a in range(s.n_subsets) if cl[a] & w[a] == a]
    return validate_gt(s.ground, family).opens


def pairwise_lambda_open_family(s: GbtSpace) -> tuple[int, ...]:
    """Masks of all pairwise λ-open sets; a generalized topology."""
    cl1, cl2 = s.mu1.closure_table, s.mu2.closure_table
    w1, w2, full = s.mu1.wedge_table, s.mu2.wedge_table, s.ground.full_mask
    family = [full ^ a for a in range(s.n_subsets) if cl1[a] & cl2[a] & w1[a] & w2[a] == a]
    return validate_gt(s.ground, family).opens
