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
routes gbtlab's byte lookup tables and stabilizer masks replaced.  The
list rows decide a pair kernel's row one second topology at a time, as the
kernels did before their signatures were bit-sliced; the per-row scan
makes a row for every first index of a ``mine`` block, as the scan did
before first indices with equal signatures shared one; and the
per-topology signatures, each from one topology's own tables, are what
the kernels built before their columns were sliced from tables of all
topologies at once.  The verdict-only claim predicates at the end are the
claims checkers that the implication rows of ``claims.IMPLICATION_ROWS``
replaced, as they were written before, reading the context's verdict word
as a profile.  These are the independent side of every dual-route check
in the suite.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, permutations
from operator import or_

from gbtlab.axioms import AxiomProfile, KernelColumn, word_verdicts
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


def disjoint_list_row(n, p, ps):
    return [p & b == 0 for b in ps]


def crossed_disjoint_list_row(n, p, q, ps, qs):
    """Holds iff p1 ∩ q2 and p2 ∩ q1 are both empty (T1/2, T1, R0 and SYM)."""
    return [p & b | a & q == 0 for a, b in zip(ps, qs)]


def lambda_symmetric_list_row(n, lam, clx, wx, lams, clxs, wxs):
    """A subset that is pairwise λ-closed (its field of lam1 ∩ lam2 is empty)
    must be λ-closed on both sides (its field of cl1 ∩ w2 ∪ cl2 ∩ w1 is empty):
    each n-bit field of the two is empty in both or in neither."""
    fields = [((1 << n) - 1) << n * a for a in range(1 << n)]
    return [
        all((lam & m & f == 0) == ((clx & w | c & wx) & f == 0) for f in fields)
        for m, c, w in zip(lams, clxs, wxs)
    ]


LIST_ROWS = {
    "T0": disjoint_list_row,
    "T1_4": disjoint_list_row,
    "T3_8": disjoint_list_row,
    "T5_8": disjoint_list_row,
    "T1_2": crossed_disjoint_list_row,
    "T1": crossed_disjoint_list_row,
    "R0": crossed_disjoint_list_row,
    "SYM": crossed_disjoint_list_row,
    "LSYM": lambda_symmetric_list_row,
}


def kernel_list_row(name, n, first, seconds):
    """The verdicts of axiom ``name``'s kernel on (first, s) for each
    signature s of ``seconds``, signatures of topologies on n points, by
    the list row."""
    return LIST_ROWS[name](n, *first, *zip(*seconds))


def scan_hits_by_rows(columns, antecedents, consequent, lo, hi, unordered):
    """The index pairs (i, j) with i in [lo, hi), and j >= i when
    ``unordered``, on which the row of every antecedent kernel holds and the
    consequent kernel's fails: each kernel's row made for every first index
    from its own signature and read one bit at a time.  ``columns`` maps
    each kernel to its column."""
    count = columns[consequent].every.bit_length()
    hits = []
    for i in range(lo, hi):
        rows = {kernel: kernel.verdicts(column, i) for kernel, column in columns.items()}
        for j in range(i if unordered else 0, count):
            if all(rows[k] >> j & 1 for k in antecedents) and not rows[consequent] >> j & 1:
                hits.append((i, j))
    return hits


# Per-topology kernel signatures, each built from one topology's own
# closure and wedge tables: the route the sliced kernel columns replaced.
# Bit fields are n bits wide; field k of a packing belongs to subset mask k
# or to point k, and T1 ends its fields with one more bit.


def _packed(fields, width):
    return sum(f << width * k for k, f in enumerate(fields))


def _transposed(m, n):
    """Swap the roles of field and bit: bit y of field x becomes bit x of field y."""
    return sum(1 << n * y + x for x in range(n) for y in range(n) if m >> n * x + y & 1)


def _off_diagonal(n):
    return _packed((((1 << n) - 1) ^ 1 << x for x in range(n)), n)


def lambda_excess(t):
    """Per subset a: cl(a) ∩ wedge(a) minus a.  A pair is T1/4 iff these are disjoint."""
    cl, w, n = t.closure_table, t.wedge_table, t.ground.size
    return (_packed((cl[a] & w[a] & ~a for a in range(1 << n)), n),)


def t0_signature(t):
    """One bit per unordered point pair that no open splits.  T0 iff disjoint."""
    pairs = combinations(range(t.ground.size), 2)
    split = (any((u >> x ^ u >> y) & 1 for u in t.opens) for x, y in pairs)
    return (sum(1 << k for k, s in enumerate(split) if not s),)


def t1_signature(t):
    """Bit y of field x (x != y): no open contains x but not y; then bit n²,
    set when that field and its transpose meet (which fails every pair),
    and the same fields with bit n² always set."""
    n, full = t.ground.size, t.ground.full_mask
    o = _packed((reduce(or_, (full & ~u for u in t.opens if u >> x & 1), 0) for x in range(n)), n)
    missing = _off_diagonal(n) & ~o
    return missing | (missing & _transposed(missing, n) != 0) << n * n, missing | 1 << n * n


def t_half_signature(t):
    """Points whose singleton is not open, and points whose singleton is not closed."""
    full = t.ground.full_mask
    return full & ~t.open_points, full & ~t.closed_points


def r0_signature(t):
    """Per point x: cl({x}), and the complement of wedge({x})."""
    n, full = t.ground.size, t.ground.full_mask
    points = [1 << x for x in range(n)]
    return (
        _packed((t.closure_table[p] for p in points), n),
        _packed((full & ~t.wedge_table[p] for p in points), n),
    )


def symmetric_signature(t):
    """Per point x: cl({x}), and the off-diagonal points y with x outside cl({y})."""
    n = t.ground.size
    c = _packed((t.closure_table[1 << x] for x in range(n)), n)
    return c, _off_diagonal(n) & ~_transposed(c, n)


def lambda_symmetric_signature(t):
    """Per subset a: cl(a) ∩ wedge(a), cl(a) and wedge(a), each minus a."""
    cl, w, n = t.closure_table, t.wedge_table, t.ground.size
    subsets = range(1 << n)
    return (
        _packed((cl[a] & w[a] & ~a for a in subsets), n),
        _packed((cl[a] & ~a for a in subsets), n),
        _packed((w[a] & ~a for a in subsets), n),
    )


SIGNATURES = {
    "T0": t0_signature,
    "T1_4": lambda_excess,
    "T3_8": lambda_excess,
    "T5_8": lambda_excess,
    "T1_2": t_half_signature,
    "T1": t1_signature,
    "R0": r0_signature,
    "SYM": symmetric_signature,
    "LSYM": lambda_symmetric_signature,
}


def signature_column(name, topologies):
    """Axiom ``name``'s kernel column from per-topology signatures: slice k
    of a component holds the positions whose signature has bit k, for as
    many bits as the widest component has (at least one)."""
    signatures = tuple(SIGNATURES[name](t) for t in topologies)
    components = tuple(zip(*signatures))
    width = max([1, *(max(c).bit_length() for c in components)])
    slices = tuple(
        tuple(sum(1 << p for p, v in enumerate(c) if v >> k & 1) for k in range(width))
        for c in components
    )
    return KernelColumn(signatures, slices, (1 << len(signatures)) - 1, topologies[0].ground.size)


# The verdict-only claim checkers as they were before they became rows of
# ``claims.IMPLICATION_ROWS``: each takes a SpaceContext and reads the profile
# its verdict word holds.


def _profile(ctx):
    # word_verdicts follows AXIOM_NAMES, as the profile's fields do
    return AxiomProfile(*word_verdicts(ctx.word).values())


def check_rem16_t1_clause(ctx):
    p = _profile(ctx)
    if p.t1 and not p.t0:
        return ctx.where("pairwise T1 without pairwise T0")
    return None


def check_thm20(ctx):
    p = _profile(ctx)
    if p.t0 and p.symmetric and not p.t1:
        return ctx.where("T0 and symmetric but not T1")
    return None


def check_rem37(ctx):
    p = _profile(ctx)
    if p.t_half and not p.t0:
        return ctx.where("T1/2 without T0")
    return None


def check_thm52(ctx):
    p = _profile(ctx)
    if p.t_half and not ctx.all_lambda:
        return ctx.where("T1/2 but some subset is not pairwise λ-closed")
    return None


def check_thm54(ctx):
    p = _profile(ctx)
    if p.t1 and p.lambda_symmetric and not p.t_half:
        return ctx.where("T1 and λ-symmetric but not T1/2")
    return None


def check_thm57(ctx):
    p = _profile(ctx)
    if p.t_quarter and not p.t0:
        return ctx.where("T1/4 without T0")
    return None


def check_rem63(ctx):
    p = _profile(ctx)
    chain = ((p.t_half, p.t_5_8), (p.t_5_8, p.t_3_8), (p.t_3_8, p.t_quarter))
    if any(strong and not weak for strong, weak in chain):
        return ctx.where("separation chain broken")
    return None


def check_thm65(ctx):
    p = _profile(ctx)
    if p.t0 and p.r0 and not p.t1:
        return ctx.where("T0 and R0 but not T1")
    return None


def check_cor67(ctx):
    p = _profile(ctx)
    if p.r0 and p.lambda_symmetric:
        values = {p.t0, p.t1, p.t_half, p.t_5_8, p.t_3_8, p.t_quarter}
        if len(values) > 1:
            return ctx.where("R0 and λ-symmetric but the six axioms are not equivalent")
    return None


VERDICT_CLAIMS = {
    "REM-16": check_rem16_t1_clause,
    "THM-20": check_thm20,
    "REM-37": check_rem37,
    "THM-52": check_thm52,
    "THM-54": check_thm54,
    "THM-57": check_thm57,
    "REM-63": check_rem63,
    "THM-65": check_thm65,
    "COR-67": check_cor67,
}
