"""Test-only reference implementations, kept deliberately naive.

Everything here follows the definitional quantifier shapes directly: no
precomputed tables, no derived characterizations.  ``OracleSpace`` works
on frozensets of labels.  The scans below it work on one topology's open
or closed masks: the four operator scans that gbtlab's DP tables replaced,
the weak-separation and closed-inside scans that it decides from its
closure and vee tables, and the four-kind separation scan that its hull DP
replaced.  The naive family enumerator walks all 2^(2^n - 1) candidate
families.  The permutation index that sorts and re-encodes each permuted
family, and the pair filter that scans each pair's stabilizer, are the
routes gbtlab's byte lookup tables and stabilizer masks replaced.  These
are the independent side of every dual-route check in the suite.
"""

from __future__ import annotations

from itertools import combinations, permutations

from gbtlab.enumeration import gt_mask_families
from gbtlab.gbt import GbtSpace
from gbtlab.gt import GeneralizedTopology

LABELS = "abcdefghijklmnop"


def naive_enumerate_gt_families(n):
    """All union-closed families of nonempty subsets (∅ implied), by
    filtering every subset of the nonempty powerset."""
    points = LABELS[:n]
    nonempty = []
    for r in range(1, n + 1):
        nonempty.extend(frozenset(c) for c in combinations(points, r))
    nonempty.sort(key=lambda s: sum(1 << points.index(x) for x in s))
    out = []
    for pick in range(1 << len(nonempty)):
        family = {nonempty[i] for i in range(len(nonempty)) if pick >> i & 1}
        if all(a | b in family for a in family for b in family):
            out.append(frozenset(family | {frozenset()}))
    return out


class OracleSpace:
    """Label-set view of a space; opens are frozensets of labels."""

    def __init__(self, points, mu1, mu2):
        self.x = frozenset(points)
        self.points = tuple(points)
        self.opens = {1: {frozenset(u) for u in mu1} | {frozenset()},
                      2: {frozenset(u) for u in mu2} | {frozenset()}}

    @staticmethod
    def from_space(space):
        return OracleSpace(
            space.ground.names,
            [space.ground.labels(u) for u in space.mu1.opens],
            [space.ground.labels(u) for u in space.mu2.opens],
        )

    def closed(self, i):
        return {self.x - u for u in self.opens[i]}

    def subsets(self):
        for r in range(len(self.points) + 1):
            for c in combinations(self.points, r):
                yield frozenset(c)

    def closure(self, i, a):
        out = self.x
        for c in self.closed(i):
            if a <= c:
                out = out & c
        return out

    def interior(self, i, a):
        out = frozenset()
        for u in self.opens[i]:
            if u <= a:
                out = out | u
        return out

    def wedge(self, i, a):
        ups = [u for u in self.opens[i] if a <= u]
        if not ups:
            return self.x
        out = self.x
        for u in ups:
            out = out & u
        return out

    def vee(self, i, a):
        out = frozenset()
        for c in self.closed(i):
            if c <= a:
                out = out | c
        return out

    def wedge_sets(self, i):
        return {a for a in self.subsets() if self.wedge(i, a) == a}

    def g_closed(self, i, a):
        """Literal form: closure_i(A) inside every j-open superset of A."""
        j = 3 - i
        cl = self.closure(i, a)
        return all(cl <= u for u in self.opens[j] if a <= u)

    def lambda_closed(self, i, a):
        """Literal decomposition: A = F ∩ L, F i-closed, L a j-wedge-set."""
        wedge_sets = self.wedge_sets(3 - i)
        return any(f & l_set == a for f in self.closed(i) for l_set in wedge_sets)

    def pairwise_lambda_closed(self, a):
        wedge_sets_1, wedge_sets_2 = self.wedge_sets(1), self.wedge_sets(2)
        return any(
            f1 & f2 & l1 & l2 == a
            for f1 in self.closed(1)
            for f2 in self.closed(2)
            for l1 in wedge_sets_1
            for l2 in wedge_sets_2
        )

    def open_singletons(self, i):
        """Points x with {x} i-open."""
        return {x for x in self.points if frozenset([x]) in self.opens[i]}

    def closed_singletons(self, i):
        """Points x with {x} i-closed: X minus x is i-open."""
        return {x for x in self.points if self.x - {x} in self.opens[i]}

    def wedge12_set(self, a):
        return self.wedge(1, a) & self.wedge(2, a) == a

    def gap_has_no_closed(self, i, a):
        gap = self.closure(i, a) - a
        return not any(c and c <= gap for c in self.closed(3 - i))

    def t0(self):
        for x, y in combinations(self.points, 2):
            if not any(
                (x in u) != (y in u) for i in (1, 2) for u in self.opens[i]
            ):
                return False
        return True

    def t1(self):
        def split(x, y):
            return any(x in u and y not in u for u in self.opens[1]) and any(
                y in v and x not in v for v in self.opens[2]
            )

        return all(split(x, y) or split(y, x) for x, y in combinations(self.points, 2))

    def r0(self):
        for i in (1, 2):
            for g_set in self.opens[i]:
                for x in g_set:
                    if not self.closure(3 - i, frozenset([x])) <= g_set:
                        return False
        return True

    def symmetric(self):
        for i in (1, 2):
            for x in self.points:
                for y in self.points:
                    if x in self.closure(i, frozenset([y])) and y not in self.closure(
                        3 - i, frozenset([x])
                    ):
                        return False
        return True

    def t_half(self):
        """Literal scan: every g-closed set wrt the other side is closed."""
        for i in (1, 2):
            for a in self.subsets():
                if self.g_closed(i, a) and self.closure(i, a) != a:
                    return False
        return True

    def t_fraction(self):
        """Four-kind separation of every subset from every outside point."""
        kinds = self.opens[1] | self.opens[2] | self.closed(1) | self.closed(2)
        for p in self.subsets():
            for y in self.x - p:
                if not any(p <= k and y not in k for k in kinds):
                    return False
        return True

    def lambda_symmetric(self):
        return all(
            self.lambda_closed(1, a) and self.lambda_closed(2, a)
            for a in self.subsets()
            if self.pairwise_lambda_closed(a)
        )

    def gt_t0(self, i):
        return all(
            any((x in u) != (y in u) for u in self.opens[i])
            for x, y in combinations(self.points, 2)
        )

    def gt_t1(self, i):
        return all(
            any(x in u and y not in u for u in self.opens[i])
            for x, y in permutations(self.points, 2)
        )


def closure_by_scan(t, a):
    """Intersection of the closed supersets of A (X is closed)."""
    acc = t.ground.full_mask
    for c in t.closed_masks:
        if a & ~c == 0:
            acc &= c
    return acc


def interior_by_scan(t, a):
    """Union of the opens inside A."""
    acc = 0
    for u in t.opens:
        if u & ~a == 0:
            acc |= u
    return acc


def wedge_by_scan(t, a):
    """Intersection of the opens containing A, X if there are none."""
    acc = t.ground.full_mask
    for u in t.opens:
        if a & ~u == 0:
            acc &= u
    return acc


def vee_by_scan(t, a):
    """Union of the closed sets inside A."""
    acc = 0
    for c in t.closed_masks:
        if c & ~a == 0:
            acc |= c
    return acc


def t_fraction_by_scan(t1, t2):
    """Every subset P and point y outside it: some open or closed set of
    either side contains P and misses y."""
    kinds = set(t1.opens) | set(t2.opens) | set(t1.closed_masks) | set(t2.closed_masks)
    for p in range(t1.ground.full_mask + 1):
        for y in range(t1.ground.size):
            q = 1 << y
            if not p & q and not any(p & ~k == 0 and not k & q for k in kinds):
                return False
    return True


def weakly_separated_by_opens(opens, a, b):
    """Opens U ⊇ A and V ⊇ B exist with A ∩ V = B ∩ U = ∅."""
    has_u = any(a & ~u == 0 and u & b == 0 for u in opens)
    has_v = any(b & ~v == 0 and v & a == 0 for v in opens)
    return has_u and has_v


def closed_inside_by_scan(closed_masks, m):
    """Some nonempty closed set lies inside M."""
    return any(f and f & ~m == 0 for f in closed_masks)


def oracle_eval_predicate(oracle: OracleSpace, predicate: str, args: dict):
    """Definitional evaluation of the fixture predicates."""
    side = args.get("side")
    a = frozenset(args["set"]) if "set" in args else None
    if predicate == "g-closed-wrt":
        return oracle.g_closed(side, a)
    if predicate == "lambda-closed-wrt":
        return oracle.lambda_closed(side, a)
    if predicate == "pairwise-lambda-closed":
        return oracle.pairwise_lambda_closed(a)
    if predicate == "wedge12-set":
        return oracle.wedge12_set(a)
    if predicate == "mu-closed":
        return (oracle.x - a) in oracle.opens[side]
    if predicate == "mu-open":
        return a in oracle.opens[side]
    if predicate == "wedge-set":
        return oracle.wedge(side, a) == a
    if predicate == "closure-equals":
        return tuple(sorted(oracle.closure(side, a)))
    if predicate == "gap-has-no-closed":
        return oracle.gap_has_no_closed(side, a)
    if predicate == "gt-T0":
        return oracle.gt_t0(side)
    if predicate == "gt-T1":
        return oracle.gt_t1(side)
    if predicate == "T0":
        return oracle.t0()
    if predicate == "T1":
        return oracle.t1()
    if predicate == "T1_2":
        return oracle.t_half()
    if predicate in ("T1_4", "T3_8", "T5_8"):
        return oracle.t_fraction()
    if predicate == "R0":
        return oracle.r0()
    if predicate == "SYM":
        return oracle.symmetric()
    if predicate == "LSYM":
        return oracle.lambda_symmetric()
    if predicate == "singletons-closed-somewhere":
        return oracle.closed_singletons(1) | oracle.closed_singletons(2) == oracle.x
    if predicate == "singletons-open-or-closed":
        return oracle.open_singletons(side) | oracle.closed_singletons(3 - side) == oracle.x
    if predicate == "singletons-four-kind":
        kinds = [oracle.open_singletons(i) | oracle.closed_singletons(i) for i in (1, 2)]
        return kinds[0] | kinds[1] == oracle.x
    raise KeyError(f"oracle has no predicate {predicate!r}")


def orbit_classes(pairs, images):
    """Partition labeled index pairs into orbits given the group's images.

    ``images(i, j)`` yields every image pair of (i, j) under the group.
    """
    seen = set()
    classes = []
    for pair in pairs:
        if pair in seen:
            continue
        orbit = set()
        frontier = [pair]
        while frontier:
            current = frontier.pop()
            if current in orbit:
                continue
            orbit.add(current)
            frontier.extend(images(*current))
        classes.append(frozenset(orbit))
        seen |= orbit
    return classes


def permute_mask(mask, perm):
    """Image of a subset mask under the point permutation ``perm``."""
    return sum(1 << perm[b] for b in range(len(perm)) if mask >> b & 1)


def permute_space(s, perm):
    """Image of a space under a point permutation (same ground labels)."""
    mu1, mu2 = (
        GeneralizedTopology(s.ground, tuple(sorted(permute_mask(m, perm) for m in t.opens)))
        for t in (s.mu1, s.mu2)
    )
    return GbtSpace(s.ground, mu1, mu2)


def gt_index_permutations_by_sorting(n):
    """``result[p][i]``: the index of family i's image under the p-th point
    permutation (lexicographic order, identity first), found by sorting the
    permuted masks and looking the family up."""
    families = gt_mask_families(n)
    index_of = {f: i for i, f in enumerate(families)}
    return tuple(
        tuple(index_of[tuple(sorted(permute_mask(m, perm) for m in f))] for f in families)
        for perm in permutations(range(n))
    )


def canonical_pair_indices_by_scan(n, symmetry):
    """Canonical index pairs in ascending order: for each pair, a scan over
    the stabilizer of its first index, and under perm+swap over the
    permutations that send its second index to the first."""
    gt_perm = gt_index_permutations_by_sorting(n)
    orbit_min = [min(images) for images in zip(*gt_perm)]
    swap = symmetry == "perm+swap"
    pairs = []
    for i, least in enumerate(orbit_min):
        if least < i:
            continue
        stab = [perm for perm in gt_perm[1:] if perm[i] == i]
        for j in range(i if swap else 0, len(orbit_min)):
            if swap and orbit_min[j] <= i:
                if orbit_min[j] < i or min(perm[i] for perm in gt_perm if perm[j] == i) < j:
                    continue
            if any(perm[j] < j for perm in stab):
                continue
            pairs.append((i, j))
    return pairs
