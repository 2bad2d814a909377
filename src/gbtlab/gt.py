"""Single generalized topology on a finite ground set.

A generalized topology is a family of "open" subsets that contains the
empty set and is closed under unions.  On a finite family, closure under
binary unions is equivalent to closure under arbitrary nonempty unions,
so validation only tests pairs.  The whole space X is NOT required to be
open; a point may have no open neighbourhood at all.  The operator
conventions below are what make that case consistent:

* closure(A)  = intersection of the closed supersets of A (X is always
  closed, so the collection is never empty); X − closure(A) is the
  largest open set missing A,
* wedge(A)    = intersection of the open supersets of A, X if there are
  none,
* vee(A)      = union of the closed subsets of A, empty if there are none,
  so vee(A) ≠ ∅ exactly when a nonempty closed set lies inside A,
* a point with no open neighbourhood is vacuously a limit point of every
  set, including the empty set.

The four operator tables, indexed by subset mask, are built by one DP
pass each over the subsets:

* wedge[a]    = a if a is open, else the AND of wedge[a ∪ {x}] over the
  points x outside a (X at a = X when X is not open),
* closure[a]  = the same recurrence over the closed sets,
* interior[a] = a if a is open, else the OR of interior[a − {x}] over
  the points x in a (∅ at a = ∅),
* vee[a]      = the same recurrence over the closed sets.

If a is not a member, every member containing a also contains a ∪ {x}
for some x outside a, and every member inside a lies inside a − {x} for
some x in a, so one point more (or less) reaches them all.  ``meet_table``
and ``join_table`` are the two passes on any family mask (bit a set when
subset a is a member; see ``sets``); ``sliced_meet_table`` is the meet
pass over many families at once, one bit per family in every int.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .sets import GroundSet, GroundSetError, Subset, family_of, parse_subset


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
    def open_family(self) -> int:
        """Family mask of the opens."""
        return family_of(self.opens)

    @cached_property
    def closed_family(self) -> int:
        """Family mask of the closed sets."""
        return family_of(self.closed_masks)

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        full = self.ground.full_mask
        return tuple(sorted(full ^ m for m in self.opens))

    # Subset families and singleton masks, each filtered once here and
    # shared by the predicates and the claim checkers.

    @cached_property
    def wedge_sets(self) -> int:
        """Family mask of the ∧-sets (A = wedge(A))."""
        return family_of(a for a, w in enumerate(self.wedge_table) if w == a)

    @cached_property
    def vee_sets(self) -> int:
        """Family mask of the ∨-sets (A = vee(A)); they form a generalized topology."""
        return family_of(a for a, v in enumerate(self.vee_table) if v == a)

    @cached_property
    def open_points(self) -> int:
        """Mask of the points whose singleton is open."""
        return sum(u for u in self.opens if u & u - 1 == 0)

    @cached_property
    def closed_points(self) -> int:
        """Mask of the points whose singleton is closed."""
        return sum(c for c in self.closed_masks if c & c - 1 == 0)

    # Full operator tables, indexed by subset mask.  Built lazily once and
    # shared by every decider that touches this topology.  They make their
    # own family masks, so a topology that needs only its tables caches no
    # family mask.

    @cached_property
    def closure_table(self) -> tuple[int, ...]:
        return meet_table(family_of(self.closed_masks), self.ground.size)

    @cached_property
    def interior_table(self) -> tuple[int, ...]:
        return join_table(family_of(self.opens), self.ground.size)

    @cached_property
    def wedge_table(self) -> tuple[int, ...]:
        return meet_table(family_of(self.opens), self.ground.size)

    @cached_property
    def vee_table(self) -> tuple[int, ...]:
        return join_table(family_of(self.closed_masks), self.ground.size)

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


@lru_cache(maxsize=None)
def _neighbours(size: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Per subset mask a: the masks with one point more, and with one point less."""
    points = [1 << x for x in range(size)]
    masks = range(1 << size)
    return (
        tuple(tuple(a | p for p in points if not a & p) for a in masks),
        tuple(tuple(a ^ p for p in points if a & p) for a in masks),
    )


def meet_table(family: int, size: int) -> tuple[int, ...]:
    """Entry a: the intersection of the members containing a, X if none."""
    full = (1 << size) - 1
    up = _neighbours(size)[0]
    table = [full] * (full + 1)
    for a in range(full, -1, -1):
        if family >> a & 1:
            table[a] = a
        else:
            acc = full
            for b in up[a]:
                acc &= table[b]
            table[a] = acc
    return tuple(table)


def sliced_meet_table(members, size: int, every: int) -> tuple[int, ...]:
    """``meet_table`` of many families at once, bit-sliced.

    ``members[a]`` has bit p set when subset a is a member of family p, and
    ``every`` has one bit per family.  Entry a * size + k has bit p set when
    point k lies in family p's entry a.  A point of a is in every entry a;
    a point k outside it is in entry a of the families that do not hold a
    and have k in the entries of a ∪ {x} for every x outside a.
    """
    full = (1 << size) - 1
    up = _neighbours(size)[0]
    table = [every] * (size << size)
    for a in range(full - 1, -1, -1):
        for k in range(size):
            if not a >> k & 1:
                acc = every ^ members[a]
                for b in up[a]:
                    acc &= table[b * size + k]
                table[a * size + k] = acc
    return tuple(table)


def join_table(family: int, size: int) -> tuple[int, ...]:
    """Entry a: the union of the members inside a, ∅ if none."""
    down = _neighbours(size)[1]
    table = [0] * (1 << size)
    for a in range(1 << size):
        if family >> a & 1:
            table[a] = a
        else:
            acc = 0
            for b in down[a]:
                acc |= table[b]
            table[a] = acc
    return tuple(table)


def union_closed(family: int, size: int) -> bool:
    """The family mask holds ∅ and is closed under unions.  One join pass:
    the union of the members inside every a must be a member (at a = ∅ that
    union is ∅, at a = A ∪ B for members A and B it is A ∪ B)."""
    return all(family >> u & 1 for u in join_table(family, size))


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
    masks = _mask_set(ground, opens) | {0}
    closed = {0}  # the unions of the masks folded in so far
    for m in masks:
        if m not in closed:
            closed |= {u | m for u in closed}
    return GeneralizedTopology(ground, tuple(sorted(closed))), tuple(sorted(closed - masks))


def _check_ground(t: GeneralizedTopology, a: Subset) -> int:
    if a.ground != t.ground:
        raise GroundSetError(f"subset over {a.ground} used with topology over {t.ground}")
    return a.bits


def is_open(t: GeneralizedTopology, a: Subset) -> bool:
    return bool(t.open_family >> _check_ground(t, a) & 1)


def is_closed(t: GeneralizedTopology, a: Subset) -> bool:
    return bool(t.closed_family >> _check_ground(t, a) & 1)


def closure(t: GeneralizedTopology, a: Subset) -> Subset:
    return Subset(t.closure_table[_check_ground(t, a)], t.ground)


def interior(t: GeneralizedTopology, a: Subset) -> Subset:
    return Subset(t.interior_table[_check_ground(t, a)], t.ground)


def wedge(t: GeneralizedTopology, a: Subset) -> Subset:
    """Intersection of the opens containing A (a ∧-set hull); X if none."""
    return Subset(t.wedge_table[_check_ground(t, a)], t.ground)


def vee(t: GeneralizedTopology, a: Subset) -> Subset:
    """Union of the closed sets inside A (a ∨-set kernel); ∅ if none."""
    return Subset(t.vee_table[_check_ground(t, a)], t.ground)


def derived_set(t: GeneralizedTopology, a: Subset) -> Subset:
    """Limit points of A: every open neighbourhood meets A minus the point."""
    return Subset(t._derived_mask(_check_ground(t, a)), t.ground)


def is_wedge_set(t: GeneralizedTopology, a: Subset) -> bool:
    return bool(t.wedge_sets >> _check_ground(t, a) & 1)


def is_vee_set(t: GeneralizedTopology, a: Subset) -> bool:
    return bool(t.vee_sets >> _check_ground(t, a) & 1)


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
