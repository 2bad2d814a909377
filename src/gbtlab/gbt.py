"""Predicates on a space carrying an ordered pair of generalized topologies.

The side index i selects one topology, j = 3 - i the other.  All subset
inclusions are non-strict.  Each set predicate is decided once, from the
operator tables of ``gt``:

* g-closed wrt the other side:    closure_i(A) ⊆ wedge_j(A),
* λ-closed wrt the other side:    A = closure_i(A) ∩ wedge_j(A),
* pairwise λ-closed:              A = closure_1(A) ∩ closure_2(A) ∩ wedge_1(A) ∩ wedge_2(A),
* ∧12-set:                        A = wedge_1(A) ∩ wedge_2(A),
* weakly separated in μj:         A ∩ closure_j(B) = ∅ = B ∩ closure_j(A),
* closed set in the closure gap:  vee_j(closure_i(A) − A) ≠ ∅.

The first four are family-mask fields of a space, made in one pass over the
subsets as it is built: ``GbtSpace.g_closed`` and ``lambda_closed`` map each
side i to a 2^n-bit integer whose bit a is set exactly when subset a belongs
to the family, and ``pairwise_lambda_closed`` and ``wedge12_sets`` are such
integers (``sets.members`` lists one, ``sets.complemented`` gives the family
of complements, so the open families are complemented masks).  The last two
are the mask functions ``weakly_separated`` and ``closed_in_gap``.  The
predicates, the λ-open families, the claim checkers and the mining queries
read them.  The existential decomposition forms are oracles:
``lambda_closed_forms`` and ``pairwise_lambda_closed_forms`` give one family
mask per form (LEM-43, LEM-45 and the tests compare them), both from one
form builder, ``_closed_forms``, fed the one-sided or the pairwise closed
sets, ∧-sets and tables; ``g_open_by_kernels`` and
``lambda_open_by_decomposition`` are checked by the tests.
"""

from __future__ import annotations

from functools import lru_cache
from operator import and_

from .gt import GeneralizedTopology, gt_from_labels, validate_gt
from .records import FrozenRecord
from .sets import GroundSet, GroundSetError, Subset, complemented, family_of, ground, members


class GbtSpace(FrozenRecord):
    """Ground set with two generalized topologies over it, and the family
    masks of its sets, all made in one pass over the subsets when the space
    is built: ``g_closed`` and ``lambda_closed`` map each side i to its
    family wrt side j.  Equality, hash and repr read the ground set and
    the topologies alone."""

    _fields = ("ground", "mu1", "mu2", "g_closed", "lambda_closed", "pairwise_lambda_closed", "wedge12_sets")
    _compared = ("ground", "mu1", "mu2")

    def __init__(self, ground: GroundSet, mu1: GeneralizedTopology, mu2: GeneralizedTopology) -> None:
        if mu1.ground != ground or mu2.ground != ground:
            raise GroundSetError("both topologies must live on the space's ground set")
        g1 = g2 = l1 = l2 = pairwise = w12 = 0
        bit = 1
        for a, c1, c2, v1, v2 in zip(
            range(1 << ground.size), mu1.closure_table, mu2.closure_table, mu1.wedge_table, mu2.wedge_table
        ):
            if not c1 & ~v2:
                g1 |= bit
            if not c2 & ~v1:
                g2 |= bit
            if c1 & v2 == a:
                l1 |= bit
            if c2 & v1 == a:
                l2 |= bit
            if v1 & v2 == a:
                w12 |= bit
            if c1 & c2 & v1 & v2 == a:
                pairwise |= bit
            bit <<= 1
        self._fill(ground, mu1, mu2, {1: g1, 2: g2}, {1: l1, 2: l2}, pairwise, w12)

    def side(self, i: int) -> GeneralizedTopology:
        return self.mu1 if _side(i) == 1 else self.mu2

    def swap(self) -> GbtSpace:
        return GbtSpace(self.ground, self.mu2, self.mu1)

    def sides(self):
        """(i, mu_i, mu_j) for i = 1 and i = 2, where j is the other side."""
        return ((1, self.mu1, self.mu2), (2, self.mu2, self.mu1))

    @property
    def n_subsets(self) -> int:
        return 1 << self.ground.size

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
    return bool(s.g_closed[_side(i)] >> _bits(s, a) & 1)


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
    return bool(s.lambda_closed[_side(i)] >> _bits(s, a) & 1)


def is_lambda_open_wrt(s: GbtSpace, i: int, a: Subset) -> bool:
    return is_lambda_closed_wrt(s, i, Subset(_bits(s, a) ^ s.ground.full_mask, s.ground))


@lru_cache(maxsize=1 << 12)
def _submasks(p: int) -> tuple[int, ...]:
    """Every subset mask of p, ascending."""
    return tuple(a for a in range(p + 1) if a & ~p == 0)


def _closed_forms(closed, wedges, cl, w, table_form: int) -> tuple[int, int, int, int]:
    """The four forms of λ-closedness over the closed sets F and the ∧-sets
    L, with closure table cl and wedge table w, one family mask each:

    (1) some F and some L give A = F ∩ L,
    (2) some F gives A = F ∩ w(A),
    (3) some L gives A = cl(A) ∩ L,
    (4) A = cl(A) ∩ w(A), which is ``table_form``, the family layer's mask.

    Forms (1) to (3) are decided independently.  (2) and (3) force A ⊆ F
    and A ⊆ L, so they walk the subsets of each F and of each L.
    """
    return (
        family_of({f & l_set for f in closed for l_set in wedges}),
        family_of({a for f in closed for a in _submasks(f) if f & w[a] == a}),
        family_of({a for l_set in wedges for a in _submasks(l_set) if cl[a] & l_set == a}),
        table_form,
    )


def lambda_closed_forms(s: GbtSpace, i: int) -> tuple[int, int, int, int]:
    """The λ-closed forms wrt the other side (LEM-43): the i-closed sets,
    the ∧_j-sets, closure_i and wedge_j."""
    ti, tj = _pair(s, i)
    wedges = members(tj.wedge_sets)
    return _closed_forms(ti.closed_masks, wedges, ti.closure_table, tj.wedge_table, s.lambda_closed[i])


def lambda_open_by_decomposition(s: GbtSpace, i: int, a: Subset) -> bool:
    """Oracle for λ-open: A = V ∪ M with V an i-open and M a ∨_j-set."""
    ti, tj = _pair(s, i)
    a_bits = _bits(s, a)
    return any(v | m == a_bits for v in ti.opens for m in members(tj.vee_sets))


def is_pairwise_lambda_closed(s: GbtSpace, a: Subset) -> bool:
    """A equals the four-way intersection of both closures and both wedges."""
    return bool(s.pairwise_lambda_closed >> _bits(s, a) & 1)


def is_pairwise_lambda_open(s: GbtSpace, a: Subset) -> bool:
    return is_pairwise_lambda_closed(s, Subset(_bits(s, a) ^ s.ground.full_mask, s.ground))


def pairwise_lambda_closed_forms(s: GbtSpace) -> tuple[int, int, int, int]:
    """The pairwise λ-closed forms (LEM-45): the intersections F1 ∩ F2 of a
    1-closed and a 2-closed set, those L1 ∩ L2 of a ∧1-set and a ∧2-set,
    and the ANDed closure and wedge tables."""
    t1, t2 = s.mu1, s.mu2
    closed12 = {f1 & f2 for f1 in t1.closed_masks for f2 in t2.closed_masks}
    wedges2 = members(t2.wedge_sets)
    wedge12 = {l1 & l2 for l1 in members(t1.wedge_sets) for l2 in wedges2}
    cl = list(map(and_, t1.closure_table, t2.closure_table))
    w = list(map(and_, t1.wedge_table, t2.wedge_table))
    return _closed_forms(closed12, wedge12, cl, w, s.pairwise_lambda_closed)


def is_wedge12_set(s: GbtSpace, a: Subset) -> bool:
    """A equals wedge_1(A) ∩ wedge_2(A)."""
    return bool(s.wedge12_sets >> _bits(s, a) & 1)


def weakly_separated(t: GeneralizedTopology, a: int, b: int) -> bool:
    """Opens U ⊇ A and V ⊇ B exist with A ∩ V = B ∩ U = ∅.  The opens
    missing A have the open union X − closure(A), so V exists exactly when
    B misses closure(A)."""
    cl = t.closure_table
    return not (a & cl[b] or b & cl[a])


def are_weakly_separated(t: GeneralizedTopology, a: Subset, b: Subset) -> bool:
    if a.ground != t.ground or b.ground != t.ground:
        raise GroundSetError("subsets belong to a different ground set")
    return weakly_separated(t, a.bits, b.bits)


def closed_in_gap(ti: GeneralizedTopology, tj: GeneralizedTopology, a: int) -> int:
    """Union of the nonempty j-closed sets inside the closure gap
    closure_i(A) − A, that is vee_j of the gap: nonzero exactly when such a
    set exists."""
    return tj.vee_table[ti.closure_table[a] & ~a]


def lambda_open_family_wrt(s: GbtSpace, i: int) -> tuple[int, ...]:
    """Masks of all λ-open sets wrt the other side; a generalized topology."""
    return validate_gt(s.ground, members(complemented(s.lambda_closed[_side(i)], s.ground.size))).opens


def pairwise_lambda_open_family(s: GbtSpace) -> tuple[int, ...]:
    """Masks of all pairwise λ-open sets; a generalized topology."""
    return validate_gt(s.ground, members(complemented(s.pairwise_lambda_closed, s.ground.size))).opens
