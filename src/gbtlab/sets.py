"""Finite ground sets and subsets as bit vectors.

Element i of a ground set corresponds to bit i of a subset mask, so all
set algebra is plain integer arithmetic.  Ground sets are capped at 16
elements: a subset then always fits a machine word and a family of
subsets fits a 2^16-bit mask.  Topologies hold plain masks; ``Subset``
is the labeled view, used where labels are parsed or a labeled subset is
an argument, and ``GroundSet`` renders masks back into labels.

A family mask is an integer whose bit a is set exactly when subset a
belongs to the family.  ``family_of`` builds one, and ``members`` and
``complemented`` read and transform one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_GROUND_SIZE = 16

DEFAULT_LABELS = "abcdefghijklmnop"


class GroundSetError(ValueError):
    """Invalid ground set, unknown label, or ground-set mismatch."""


@dataclass(frozen=True)
class GroundSet:
    """Ordered, distinct element labels; label i owns bit i."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.names) <= MAX_GROUND_SIZE:
            raise GroundSetError(
                f"ground set must have 1..{MAX_GROUND_SIZE} elements, got {len(self.names)}"
            )
        if len(set(self.names)) != len(self.names):
            raise GroundSetError(f"duplicate labels in {self.names}")
        if any(not name for name in self.names):
            raise GroundSetError("empty label")

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def index(self, label: str) -> int:
        try:
            return self.names.index(label)
        except ValueError:
            raise GroundSetError(f"unknown label {label!r}; ground set is {self.names}") from None

    def labels(self, mask: int) -> tuple[str, ...]:
        return tuple(name for i, name in enumerate(self.names) if mask >> i & 1)

    def label(self, mask: int) -> str:
        """A subset mask in brace notation, e.g. ``{a,c}``."""
        return "{" + ",".join(self.labels(mask)) + "}"

    def label_family(self, masks) -> str:
        """A family of subset masks in brace notation, e.g. ``{{}, {a}}``."""
        return "{" + ", ".join(map(self.label, masks)) + "}"

    def __repr__(self) -> str:
        return f"GroundSet({'{' + ','.join(self.names) + '}'})"


def ground(n_or_names) -> GroundSet:
    """GroundSet from a size (labels a, b, c, ...) or an iterable of labels."""
    if isinstance(n_or_names, int):
        if not 1 <= n_or_names <= MAX_GROUND_SIZE:
            raise GroundSetError(f"size out of range: {n_or_names}")
        return GroundSet(tuple(DEFAULT_LABELS[:n_or_names]))
    return GroundSet(tuple(n_or_names))


@dataclass(frozen=True, order=True)
class Subset:
    """Characteristic bit vector over one ground set."""

    bits: int
    ground: GroundSet = field(compare=False)

    def __post_init__(self) -> None:
        if self.bits & ~self.ground.full_mask:
            raise GroundSetError(f"bits {self.bits:#x} outside ground set of size {self.ground.size}")

    def labels(self) -> tuple[str, ...]:
        return self.ground.labels(self.bits)

    def __contains__(self, label: str) -> bool:
        return bool(self.bits >> self.ground.index(label) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __repr__(self) -> str:
        return self.ground.label(self.bits)


def _same_ground(a: Subset, b: Subset) -> GroundSet:
    if a.ground != b.ground:
        raise GroundSetError(f"ground-set mismatch: {a.ground} vs {b.ground}")
    return a.ground


def union(a: Subset, b: Subset) -> Subset:
    return Subset(a.bits | b.bits, _same_ground(a, b))


def intersect(a: Subset, b: Subset) -> Subset:
    return Subset(a.bits & b.bits, _same_ground(a, b))


def complement(a: Subset) -> Subset:
    return Subset(a.bits ^ a.ground.full_mask, a.ground)


def is_subset(a: Subset, b: Subset) -> bool:
    _same_ground(a, b)
    return a.bits & ~b.bits == 0


def full(g: GroundSet) -> Subset:
    return Subset(g.full_mask, g)


def family_of(masks) -> int:
    """Family mask of distinct subset masks."""
    return sum(1 << a for a in masks)


def members(family: int) -> list[int]:
    """Subset masks of a family mask, ascending."""
    out = []
    while family:
        low = family & -family
        out.append(low.bit_length() - 1)
        family ^= low
    return out


def complemented(family: int, size: int) -> int:
    """Family mask of the complements X − A of the members A.  Subset a
    moves to (2^n − 1) − a, so the 2^n-bit string is read backwards."""
    return int(format(family, f"0{1 << size}b")[::-1], 2)


def parse_subset(labels, g: GroundSet) -> Subset:
    """Subset from element labels; rejects unknown and duplicate labels."""
    bits = 0
    for label in labels:
        bit = 1 << g.index(label)
        if bits & bit:
            raise GroundSetError(f"duplicate label {label!r}")
        bits |= bit
    return Subset(bits, g)
