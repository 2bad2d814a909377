"""Single generalized topology on a finite ground set.

A generalized topology is a family of "open" subsets that contains the
empty set and is closed under unions.  On a finite family, closure under
binary unions is equivalent to closure under arbitrary nonempty unions,
so validation only tests pairs.  The whole space X is NOT required to be
open; a point may have no open neighbourhood at all.  The operator
conventions below are what make that case consistent:

* closure(A)  = intersection of the closed supersets of A (X is always
  closed, so the collection is never empty),
* wedge(A)    = intersection of the open supersets of A, X if there are
  none,
* vee(A)      = union of the closed subsets of A, empty if there are none,
* a point with no open neighbourhood is vacuously a limit point of every
  set, including the empty set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .sets import GroundSet, GroundSetError, Subset, parse_subset


class GTValidationError(ValueError):
    """Family is not a generalized topology.

    ``kind`` is ``"missing-empty-set"`` or ``"union-escape"``; for the
    latter, ``pair`` holds the masks of the offending (A, B) with A ∪ B
    outside the family.
    """

    def __init__(self, kind: str, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.kind = kind
        self.pair = pair


@dataclass(frozen=True)
class GeneralizedTopology:
    """Validated generalized topology; construct through :func:`validate_gt`.

    ``opens`` is the ascending tuple of open masks, so ∅ = 0 comes first.
    """

    ground: GroundSet
    opens: tuple[int, ...]

    @cached_property
    def open_labels(self) -> tuple[tuple[str, ...], ...]:
        """Label tuples of the nonempty opens, as a space file lists them."""
        return tuple(self.ground.labels(m) for m in self.opens if m)

    @cached_property
    def open_mask_set(self) -> frozenset[int]:
        return frozenset(self.opens)

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        full = self.ground.full_mask
        return tuple(sorted(full ^ m for m in self.opens))

    # Subset families and singleton masks, each filtered once here and
    # shared by the predicates, the claim checkers and the pair kernels.

    @cached_property
    def wedge_sets(self) -> tuple[int, ...]:
        """Masks of the ∧-sets (A = wedge(A)), ascending."""
        wt = self.wedge_table
        return tuple(a for a in range(1 << self.ground.size) if wt[a] == a)

    @cached_property
    def vee_sets(self) -> tuple[int, ...]:
        """Masks of the ∨-sets (A = vee(A)), ascending; they form a generalized topology."""
        vt = self.vee_table
        return tuple(a for a in range(1 << self.ground.size) if vt[a] == a)

    @cached_property
    def open_points(self) -> int:
        """Mask of the points whose singleton is open."""
        return sum(u for u in self.opens if u & u - 1 == 0)

    @cached_property
    def closed_points(self) -> int:
        """Mask of the points whose singleton is closed."""
        return sum(c for c in self.closed_masks if c & c - 1 == 0)

    # Full operator tables, indexed by subset mask.  Built lazily once and
    # shared by every decider that touches this topology.

    @cached_property
    def closure_table(self) -> tuple[int, ...]:
        return tuple(self._closure_mask(a) for a in range(1 << self.ground.size))

    @cached_property
    def interior_table(self) -> tuple[int, ...]:
        return tuple(self._interior_mask(a) for a in range(1 << self.ground.size))

    @cached_property
    def wedge_table(self) -> tuple[int, ...]:
        return tuple(self._wedge_mask(a) for a in range(1 << self.ground.size))

    @cached_property
    def vee_table(self) -> tuple[int, ...]:
        return tuple(self._vee_mask(a) for a in range(1 << self.ground.size))

    def _closure_mask(self, a: int) -> int:
        acc = self.ground.full_mask
        for c in self.closed_masks:
            if a & ~c == 0:
                acc &= c
        return acc

    def _interior_mask(self, a: int) -> int:
        acc = 0
        for u in self.opens:
            if u & ~a == 0:
                acc |= u
        return acc

    def _wedge_mask(self, a: int) -> int:
        acc = self.ground.full_mask  # X when no open contains a
        for u in self.opens:
            if a & ~u == 0:
                acc &= u
        return acc

    def _vee_mask(self, a: int) -> int:
        acc = 0
        for c in self.closed_masks:
            if c & ~a == 0:
                acc |= c
        return acc

    def _derived_mask(self, a: int) -> int:
        out = 0
        for i in range(self.ground.size):
            p = 1 << i
            rest = a & ~p
            if all(u & rest for u in self.opens if u & p):
                out |= p
        return out

    def __repr__(self) -> str:
        return f"GT({self.ground.label_family(self.opens)} on {self.ground!r})"


def _mask_set(ground: GroundSet, masks) -> set[int]:
    out = set(masks)
    for m in out:
        if m & ~ground.full_mask:
            raise GroundSetError(f"bits {m:#x} outside ground set of size {ground.size}")
    return out


def validate_gt(ground: GroundSet, opens) -> GeneralizedTopology:
    """Check that the open masks lie in the ground set, include ∅ and are
    closed under union; raise GroundSetError or GTValidationError otherwise."""
    mask_set = _mask_set(ground, opens)
    if 0 not in mask_set:
        raise GTValidationError("missing-empty-set", "the empty set must be open")
    masks = tuple(sorted(mask_set))
    for x, y in itertools.combinations(masks, 2):
        if x | y not in mask_set:
            label = ground.label
            raise GTValidationError(
                "union-escape",
                f"family not closed under union: {label(x)} ∪ {label(y)} = {label(x | y)} is missing",
                pair=(x, y),
            )
    return GeneralizedTopology(ground, masks)


def gt_from_labels(g: GroundSet, open_label_lists) -> GeneralizedTopology:
    """Build and validate a topology from label lists; ∅ is implied."""
    return validate_gt(g, [0, *(parse_subset(labels, g).bits for labels in open_label_lists)])


def complete_unions(ground: GroundSet, opens) -> tuple[GeneralizedTopology, tuple[int, ...]]:
    """Smallest generalized topology containing the open masks; also returns
    the added masks, ascending."""
    masks = _mask_set(ground, opens)
    masks.add(0)
    added: set[int] = set()
    frontier = True
    while frontier:
        frontier = False
        for x, y in itertools.combinations(sorted(masks), 2):
            u = x | y
            if u not in masks:
                masks.add(u)
                added.add(u)
                frontier = True
                break
    return GeneralizedTopology(ground, tuple(sorted(masks))), tuple(sorted(added))


def _check_ground(t: GeneralizedTopology, a: Subset) -> int:
    if a.ground != t.ground:
        raise GroundSetError(f"subset over {a.ground} used with topology over {t.ground}")
    return a.bits


def is_open(t: GeneralizedTopology, a: Subset) -> bool:
    return _check_ground(t, a) in t.open_mask_set


def is_closed(t: GeneralizedTopology, a: Subset) -> bool:
    return (_check_ground(t, a) ^ t.ground.full_mask) in t.open_mask_set


def closure(t: GeneralizedTopology, a: Subset) -> Subset:
    return Subset(t._closure_mask(_check_ground(t, a)), t.ground)


def interior(t: GeneralizedTopology, a: Subset) -> Subset:
    return Subset(t._interior_mask(_check_ground(t, a)), t.ground)


def wedge(t: GeneralizedTopology, a: Subset) -> Subset:
    """Intersection of the opens containing A (a ∧-set hull); X if none."""
    return Subset(t._wedge_mask(_check_ground(t, a)), t.ground)


def vee(t: GeneralizedTopology, a: Subset) -> Subset:
    """Union of the closed sets inside A (a ∨-set kernel); ∅ if none."""
    return Subset(t._vee_mask(_check_ground(t, a)), t.ground)


def derived_set(t: GeneralizedTopology, a: Subset) -> Subset:
    """Limit points of A: every open neighbourhood meets A minus the point."""
    return Subset(t._derived_mask(_check_ground(t, a)), t.ground)


def is_wedge_set(t: GeneralizedTopology, a: Subset) -> bool:
    return _check_ground(t, a) in t.wedge_sets


def is_vee_set(t: GeneralizedTopology, a: Subset) -> bool:
    return _check_ground(t, a) in t.vee_sets


def is_gt_T0(t: GeneralizedTopology) -> bool:
    """Some open contains exactly one point of each pair."""
    for i, j in itertools.combinations(range(t.ground.size), 2):
        p, q = 1 << i, 1 << j
        if not any(bool(u & p) != bool(u & q) for u in t.opens):
            return False
    return True


def is_gt_T1(t: GeneralizedTopology) -> bool:
    """Each point of each pair has an open neighbourhood missing the other."""
    for i, j in itertools.permutations(range(t.ground.size), 2):
        p, q = 1 << i, 1 << j
        if not any(u & p and not u & q for u in t.opens):
            return False
    return True
