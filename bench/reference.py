"""Reference computations for the benchmark's output checks.

Nothing here imports gbtlab.  Families are sets of frozensets of point
labels, found by filtering every candidate family; orbit counts come from
Burnside's lemma rather than from canonical forms; and the nine axioms are
decided from their definitions by quantifying over label sets.  These are
slow on purpose and serve only to check what the engine reports.
"""

from __future__ import annotations

import itertools
import math

LABELS = "abcdefghijklmnop"


def points(n: int) -> tuple[str, ...]:
    return tuple(LABELS[:n])


def naive_families(n: int) -> list[frozenset[frozenset[str]]]:
    """Every union-closed family on n points, ∅ included.

    Filters all 2^(2^n - 1) candidate families of nonempty subsets.
    """
    nonempty = [
        frozenset(c) for r in range(1, n + 1) for c in itertools.combinations(points(n), r)
    ]
    index = {s: k for k, s in enumerate(nonempty)}
    union_bit = [[index[a | b] for b in nonempty] for a in nonempty]
    out = []
    for pick in range(1 << len(nonempty)):
        chosen = [k for k in range(len(nonempty)) if pick >> k & 1]
        if all(pick >> union_bit[a][b] & 1 for a in chosen for b in chosen):
            out.append(frozenset([frozenset()] + [nonempty[k] for k in chosen]))
    return out


def admitted(families, max_open_sets: int | None):
    """Families with at most ``max_open_sets`` nonempty opens (all when None)."""
    if max_open_sets is None:
        return list(families)
    return [f for f in families if len(f) - 1 <= max_open_sets]


def _act(perm: dict[str, str], family) -> frozenset[frozenset[str]]:
    return frozenset(frozenset(perm[x] for x in u) for u in family)


def burnside_pair_orbits(n: int, families, swap: bool) -> int:
    """Number of orbits of (F1, F2) pairs under point permutations.

    With ``swap`` the group also exchanges the two families.  A permutation
    σ fixes fix(σ)² pairs; σ followed by the swap fixes (σ(F), F) for each F
    fixed by σ², which gives fix(σ²) pairs.
    """
    family_set = set(families)
    pts = points(n)
    total = 0
    for image in itertools.permutations(pts):
        sigma = dict(zip(pts, image))
        fixed = sum(1 for f in family_set if _act(sigma, f) == f)
        total += fixed * fixed
        if swap:
            sigma2 = {x: sigma[sigma[x]] for x in pts}
            total += sum(1 for f in family_set if _act(sigma2, f) == f)
    group = math.factorial(n) * (2 if swap else 1)
    if total % group:
        raise ArithmeticError("Burnside sum not divisible by the group order")
    return total // group


def pair_orbit_representatives(n: int, families, swap: bool) -> list[tuple]:
    """One (F1, F2) per orbit, found by brute force over all labeled pairs."""
    pts = points(n)
    perms = [dict(zip(pts, image)) for image in itertools.permutations(pts)]
    family_list = list(families)
    seen: set[tuple] = set()
    reps = []
    for pair in itertools.product(family_list, repeat=2):
        if pair in seen:
            continue
        reps.append(pair)
        for sigma in perms:
            image = (_act(sigma, pair[0]), _act(sigma, pair[1]))
            seen.add(image)
            if swap:
                seen.add(image[::-1])
    return reps


# ---------------------------------------------------------------------------
# definitional decider


class LabelSpace:
    """A finite carrier with two generalized topologies, as label sets."""

    def __init__(self, pts, mu1, mu2):
        self.points = tuple(pts)
        self.x = frozenset(pts)
        empty = frozenset()
        self.opens = {
            1: {frozenset(u) for u in mu1} | {empty},
            2: {frozenset(u) for u in mu2} | {empty},
        }
        self.closeds = {i: {self.x - u for u in self.opens[i]} for i in (1, 2)}
        self.subsets = [
            frozenset(c)
            for r in range(len(self.points) + 1)
            for c in itertools.combinations(self.points, r)
        ]
        self.cl = {i: {a: self._closure(i, a) for a in self.subsets} for i in (1, 2)}
        self.wd = {i: {a: self._wedge(i, a) for a in self.subsets} for i in (1, 2)}
        self.wedge_sets = {i: {a for a in self.subsets if self.wd[i][a] == a} for i in (1, 2)}

    @staticmethod
    def from_data(data: dict) -> "LabelSpace":
        """From the space-file schema: {"points", "mu1", "mu2"}."""
        return LabelSpace(data["points"], data["mu1"], data["mu2"])

    def _closure(self, i: int, a):
        """Intersection of the i-closed supersets of A (X is always closed)."""
        out = self.x
        for f in self.closeds[i]:
            if a <= f:
                out &= f
        return out

    def _wedge(self, i: int, a):
        """Intersection of the i-open supersets of A; X when there is none."""
        out = self.x
        for u in self.opens[i]:
            if a <= u:
                out &= u
        return out

    def g_closed(self, i: int, a) -> bool:
        """cl_i(A) lies inside every j-open superset of A."""
        return all(self.cl[i][a] <= u for u in self.opens[3 - i] if a <= u)

    def lambda_closed(self, i: int, a) -> bool:
        """A = F ∩ L for an i-closed F and a ∧-set L of the other side."""
        return any(f & w == a for f in self.closeds[i] for w in self.wedge_sets[3 - i])

    def pairwise_lambda_closed(self, a) -> bool:
        """A = F1 ∩ F2 ∩ L1 ∩ L2 for closed Fi and ∧-sets Li of side i."""
        closed_meets = {f1 & f2 for f1 in self.closeds[1] for f2 in self.closeds[2]}
        wedge_meets = {w1 & w2 for w1 in self.wedge_sets[1] for w2 in self.wedge_sets[2]}
        return any(c & w == a for c in closed_meets for w in wedge_meets)

    def t0(self) -> bool:
        """Each pair of points is split by some open set of either side."""
        return all(
            any((x in u) != (y in u) for i in (1, 2) for u in self.opens[i])
            for x, y in itertools.combinations(self.points, 2)
        )

    def t1(self) -> bool:
        """Each pair, labeled one way or the other, has a 1-open set holding
        the first point only and a 2-open set holding the second only."""

        def separated(p, q) -> bool:
            return any(p in u and q not in u for u in self.opens[1]) and any(
                q in v and p not in v for v in self.opens[2]
            )

        return all(
            separated(x, y) or separated(y, x)
            for x, y in itertools.combinations(self.points, 2)
        )

    def r0(self) -> bool:
        """Every i-open set contains the j-closure of each of its points."""
        return all(
            self.cl[3 - i][frozenset([x])] <= g
            for i in (1, 2)
            for g in self.opens[i]
            for x in g
        )

    def symmetric(self) -> bool:
        """x ∈ cl_i{y} implies y ∈ cl_j{x}."""
        return all(
            y in self.cl[3 - i][frozenset([x])]
            for i in (1, 2)
            for x in self.points
            for y in self.points
            if x in self.cl[i][frozenset([y])]
        )

    def t_half(self) -> bool:
        """Every set that is g-closed wrt the other side is closed."""
        return all(
            self.cl[i][a] == a
            for i in (1, 2)
            for a in self.subsets
            if self.g_closed(i, a)
        )

    def subsets_separated(self) -> bool:
        """Each subset P is separated from each point y outside it by a set
        that is open or closed on either side, contains P and misses y."""
        kinds = self.opens[1] | self.opens[2] | self.closeds[1] | self.closeds[2]
        return all(
            any(p <= k and y not in k for k in kinds)
            for p in self.subsets
            for y in self.x - p
        )

    def lambda_symmetric(self) -> bool:
        """Every pairwise λ-closed set is λ-closed wrt both sides."""
        return all(
            self.lambda_closed(1, a) and self.lambda_closed(2, a)
            for a in self.subsets
            if self.pairwise_lambda_closed(a)
        )

    def profile(self) -> dict[str, bool]:
        # T1/4, T3/8 and T5/8 separate the finite, the countable and all
        # subsets; on a finite carrier every subset is in each grade.
        fraction = self.subsets_separated()
        return {
            "T0": self.t0(),
            "T1_4": fraction,
            "T3_8": fraction,
            "T5_8": fraction,
            "T1_2": self.t_half(),
            "T1": self.t1(),
            "R0": self.r0(),
            "SYM": self.symmetric(),
            "LSYM": self.lambda_symmetric(),
        }


def axiom_counts(n: int, reps) -> dict[str, int]:
    """How many of the given (F1, F2) spaces satisfy each axiom."""
    counts: dict[str, int] = {}
    for f1, f2 in reps:
        for name, value in LabelSpace(points(n), f1, f2).profile().items():
            if value:
                counts[name] = counts.get(name, 0) + 1
    return counts
