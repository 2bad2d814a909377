"""Counterexample mining and census over the enumerated space universe.

A mining query asks for spaces on which a set of axioms holds while one
further axiom fails.  The sweep covers every labeled pair of topologies
in the requested size range; under the perm+swap symmetry only unordered
index pairs are scanned, which is sound because all nine axioms are
swap-invariant (a property the test suite verifies for the deciders and
the pair kernels).  Witnesses are reported in canonical form and
deduplicated by canonical key, and every witness is re-verified with the
cross-validated profile before it is returned.  A query that completes
its sweep without any hit yields a verified-exhausted result whose
checked-space count documents the proof.

The sweep decides pairs with the pair kernels of ``axioms.PAIR_KERNELS``:
each topology of a size level gets a few packed integers per axiom the
query names, and the level's column of them is bit-sliced once, on first
use.  A row of pairs (first index i fixed) is then one int per kernel,
bit j the verdict on (i, j), made by a few big-int ORs; the query's hits
are the set bits of the antecedents' rows and of the complement of the
consequent's.  The deciders are the kernels' oracles: every pair a
kernel reports as a hit is decided again by ``evaluate_axiom``, and a
disagreement raises InternalDisagreementError.

A census (and the implication lattice, which reads the same words)
decides the canonical pairs of a level with every kernel at once:
``verdict_words`` gives each pair a verdict word, one bit per distinct
kernel, read from the int rows made once per first index, and asserts
the implication chain of ``axiom_profile`` on every word.  The kernel
columns hold only the topologies a census's ``max_open_sets`` bound
admits, found through a position map; without a bound (the unbounded
census, the lattice and ``mine``) that is every topology.  The pairs of
``canonical_pair_indices`` are minimal in encoding order, so each logged
key is ``canonical_index_key`` of the pair's indices, and a logged space
lists each topology's cached ``open_labels``.  A census log line is
assembled from JSON fragments made once: each topology's labels and each
verdict word's profile; its bytes are those of ``_dump`` of the record.
``axiom_profile``, ``canonical_key`` and ``space_to_data`` are the tests'
oracles for them.

Work is split into fixed-size blocks of first-coordinate indices.  Block
boundaries depend only on the size level, never on the worker count, and
block results are consumed strictly in block order, so the witness
stream is identical no matter how many workers ran the scan.

``mine`` and ``census`` share one append-only NDJSON block log.  Its
first line is ``{"header": ..., "log": "mine" | "census"}``; then come
self-contained ``{"key","space","profile"}`` records (mining witnesses,
or every canonical space of a census), each block closed by a flushed
``{"block": [n, index], "checked": c}`` line, and a finished mining run
ends with ``{"end": true, ...}``.  Resuming reads the log one line at a
time: finished blocks are skipped and every logged record counts,
including those of a block a crash left unfinished.  A resume that logs
to another file first copies the resumed log into it when that file is
missing or empty, so either file can be resumed later.  A log file that
is not empty is refused, before any work, unless it is the resumed log
itself: a second run appended to it would be added up with the first on
resume.
"""

from __future__ import annotations

import json
import operator
import os
import shutil
from collections import Counter
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, groupby

from .axioms import (
    PAIR_KERNELS,
    AxiomProfile,
    InternalDisagreementError,
    KernelColumn,
    PairKernel,
    axiom_profile,
    check_implication_chain,
    evaluate_axiom,
    normalize_axiom_name,
)
from .enumeration import (
    canonical_index_key,
    canonical_key,
    canonical_pair_indices,
    check_size,
    check_symmetry,
    enumerate_gbt_pairs,
    family_from_encoding,
    gts_on,
    key_width,
    pair_orbit_size,
)
from .gbt import GbtSpace
from .gt import GeneralizedTopology
from .sets import ground, members
from .spacefile import space_to_data

BLOCKS_PER_LEVEL = 32


@dataclass(frozen=True)
class MiningQuery:
    antecedents: tuple[str, ...]
    consequent: str
    n_min: int = 1
    n_max: int = 3
    symmetry: str = "perm+swap"
    limit: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "antecedents", tuple(normalize_axiom_name(a) for a in self.antecedents)
        )
        object.__setattr__(self, "consequent", normalize_axiom_name(self.consequent))
        check_symmetry(self.symmetry)
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError(f"bad size range [{self.n_min}, {self.n_max}]")
        check_size(self.n_max)
        if self.limit < 1:
            raise ValueError("limit must be positive")

    def as_dict(self) -> dict:
        return {
            "antecedents": list(self.antecedents),
            "consequent": self.consequent,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "symmetry": self.symmetry,
            "limit": self.limit,
        }


@dataclass(frozen=True)
class Witness:
    space: GbtSpace
    profile: AxiomProfile
    key: bytes

    def as_dict(self) -> dict:
        return {
            "key": self.key.hex(),
            "space": space_to_data(self.space),
            "profile": self.profile.as_dict(),
        }


@dataclass
class MiningResult:
    query: MiningQuery
    witnesses: list[Witness]
    complete: bool
    spaces_checked: int
    checked_by_n: dict[int, int] = field(default_factory=dict)

    @property
    def exhausted(self) -> bool:
        """Full sweep finished and found nothing: the query is unsatisfiable in range."""
        return self.complete and not self.witnesses

    def as_dict(self) -> dict:
        return {
            "query": self.query.as_dict(),
            "witnesses": [w.as_dict() for w in self.witnesses],
            "complete": self.complete,
            "exhausted": self.exhausted,
            "spaces_checked": self.spaces_checked,
            "checked_by_n": {str(n): c for n, c in sorted(self.checked_by_n.items())},
        }


@lru_cache(maxsize=None)
def _admitted(n: int, max_open_sets: int | None = None) -> Sequence[int]:
    """Indices of the topologies on n points with at most ``max_open_sets``
    nonempty opens; every index when there is no bound."""
    gts = gts_on(n)
    if max_open_sets is None:
        return range(len(gts))
    return tuple(i for i, t in enumerate(gts) if len(t.opens) - 1 <= max_open_sets)


@lru_cache(maxsize=None)
def _kernel_column(n: int, kernel: PairKernel, max_open_sets: int | None = None) -> KernelColumn:
    """The kernel's column over the admitted topologies, in index order."""
    return kernel.column(map(gts_on(n).__getitem__, _admitted(n, max_open_sets)))


def _scan_block(n: int, lo: int, hi: int, query: MiningQuery) -> tuple[list[tuple[int, int]], int]:
    """Scan first-coordinate indices [lo, hi); returns hit index pairs and pair count.

    Each row (i fixed) is one int per kernel the query names, bit j the
    verdict on (i, j); the pairs that match the query are the set bits of
    the antecedents' rows and the complement of the consequent's, from
    ``start`` on.  Every hit is re-decided by the deciders.
    """
    gts = gts_on(n)
    unordered = query.symmetry == "perm+swap"
    consequent = PAIR_KERNELS[query.consequent]
    antecedents = {PAIR_KERNELS[a] for a in query.antecedents}
    columns = {k: _kernel_column(n, k) for k in (*antecedents, consequent)}
    every = columns[consequent].every
    hits: list[tuple[int, int]] = []
    checked = 0
    for i in range(lo, hi):
        start = i if unordered else 0
        rows = {k: k.verdicts(column, i) for k, column in columns.items()}
        match = (every & ~rows[consequent]) >> start << start
        for k in antecedents:
            match &= rows[k]
        t1 = gts[i]
        while match:
            low = match & -match
            match ^= low
            j = low.bit_length() - 1
            t2 = gts[j]
            if not all(evaluate_axiom(a, t1, t2) for a in query.antecedents) or evaluate_axiom(
                query.consequent, t1, t2
            ):
                raise InternalDisagreementError(
                    f"pair kernel and deciders disagree on {GbtSpace(t1.ground, t1, t2)!r}"
                )
            hits.append((i, j))
        checked += len(gts) - start
    return hits, checked


def _block_results(tasks, query: MiningQuery, workers: int):
    """Yield the ``_scan_block`` result of each (n, index, lo, hi) task, in
    task order; with more than one worker the blocks run in a process pool,
    whose pending blocks are cancelled when the caller stops early."""
    if workers <= 1:
        for n, _, lo, hi in tasks:
            yield _scan_block(n, lo, hi, query)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_scan_block, n, lo, hi, query) for n, _, lo, hi in tasks]
        try:
            for future in futures:
                yield future.result()
        finally:
            for future in futures:
                future.cancel()


def _blocks(count: int) -> list[tuple[int, int]]:
    size = max(1, -(-count // BLOCKS_PER_LEVEL))
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def canonical_space(key: bytes) -> GbtSpace:
    """Decode a canonical key back into its representative space."""
    n = key[0]
    width = key_width(n)
    e1 = int.from_bytes(key[1 : 1 + width], "big")
    e2 = int.from_bytes(key[1 + width :], "big")
    g = ground(n)
    mu1, mu2 = (GeneralizedTopology(g, family_from_encoding(enc, n)) for enc in (e1, e2))
    return GbtSpace(g, mu1, mu2)


def _verify_witness(query: MiningQuery, key: bytes) -> Witness:
    space = canonical_space(key)
    profile = axiom_profile(space, cross_validate=True)
    verdicts = profile.as_dict()
    if not all(verdicts[a] for a in query.antecedents) or verdicts[query.consequent]:
        raise InternalDisagreementError(f"mined witness fails re-verification: {space!r}")
    return Witness(space, profile, key)


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _dump(record: dict) -> str:
    return _compact(record) + "\n"


def _replay(path, header: dict, done: dict[tuple[int, int], int]):
    """Yield the records of the block log at ``path``, one line at a time.

    The first line must carry ``header``.  Block lines are not yielded:
    each is entered in ``done`` as (n, index) -> spaces checked.
    """
    with open(path, encoding="utf-8") as handle:
        records = (json.loads(line) for line in handle if line.strip())
        first = next(records, None)
        if not isinstance(first, dict) or first.get("header") != header["header"]:
            raise ValueError(f"{path}: log was written for a different {header['log']} run")
        for record in records:
            if "block" in record:
                n, index = record["block"]
                done[n, index] = done.get((n, index), 0) + record["checked"]
            else:
                yield record


class _LogWriter:
    """Appends records and block lines to an open block log."""

    def __init__(self, handle) -> None:
        self._handle = handle

    def record(self, record: dict) -> None:
        self.line(_dump(record))

    def line(self, text: str) -> None:
        self._handle.write(text)

    def block(self, n: int, index: int, checked: int) -> None:
        """Close a block; flushed, because it makes every record before it durable."""
        self.record({"block": [n, index], "checked": checked})
        self._handle.flush()


def _refuse_used_log(path, resumed) -> None:
    """Refuse a log that already holds a run, unless it is the log being resumed.

    Appending a second run would make a later resume add up both runs.
    """
    if path is None or not os.path.exists(path) or os.path.getsize(path) == 0:
        return
    if resumed is None or not os.path.samefile(path, resumed):
        raise ValueError(f"{path}: log already holds a run; resume it with --resume {path}")


@contextmanager
def _appending(path, header: dict, resumed=None):
    """A writer for the block log at ``path``, or None when there is no path.

    A missing or empty log starts as a copy of the ``resumed`` log, so that
    appending to it continues that run just as an in-place resume would;
    without a resumed log it starts with ``header``.  A log that is not
    empty is the resumed log itself (see ``_refuse_used_log``).
    """
    if path is None:
        yield None
        return
    with open(path, "a", encoding="utf-8") as handle:
        writer = _LogWriter(handle)
        if handle.tell() == 0:
            if resumed is None:
                writer.record(header)
            else:
                with open(resumed, encoding="utf-8") as source:
                    shutil.copyfileobj(source, handle)
        yield writer


def mine(
    query: MiningQuery,
    workers: int = 1,
    log_path=None,
    resume_path=None,
) -> MiningResult:
    """Run a query over every pair of topologies in the size range."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    _refuse_used_log(log_path, resume_path)
    header = {"header": query.as_dict(), "log": "mine"}
    done_blocks: dict[tuple[int, int], int] = {}
    witnesses: list[Witness] = []
    seen_keys: set[bytes] = set()
    ended = False
    if resume_path is not None:
        for record in _replay(resume_path, header, done_blocks):
            if "key" in record:
                key = bytes.fromhex(record["key"])
                if key not in seen_keys:
                    seen_keys.add(key)
                    witnesses.append(_verify_witness(query, key))
            elif record.get("end"):
                ended = True
    checked_by_n: dict[int, int] = {}
    for (n, _), checked in done_blocks.items():
        checked_by_n[n] = checked_by_n.get(n, 0) + checked

    with _appending(log_path, header, resume_path) as log:
        if ended or len(witnesses) >= query.limit:
            return MiningResult(query, witnesses, ended, sum(checked_by_n.values()), checked_by_n)
        tasks = [
            (n, index, lo, hi)
            for n in range(query.n_min, query.n_max + 1)
            for index, (lo, hi) in enumerate(_blocks(len(gts_on(n))))
            if (n, index) not in done_blocks
        ]
        workers = min(workers, os.cpu_count() or 1, len(tasks))
        stopped = False
        with closing(_block_results(tasks, query, workers)) as results:
            for (n, index, _, _), (hits, checked) in zip(tasks, results):
                checked_by_n[n] = checked_by_n.get(n, 0) + checked
                gts = gts_on(n)
                g = gts[0].ground
                for i, j in hits:
                    key = canonical_key(GbtSpace(g, gts[i], gts[j]), query.symmetry)
                    if key in seen_keys:
                        continue
                    seen_keys.add(key)
                    witness = _verify_witness(query, key)
                    witnesses.append(witness)
                    if log is not None:
                        log.record(witness.as_dict())
                    if len(witnesses) >= query.limit:
                        stopped = True
                        break
                # a block interrupted by the witness limit is not durable: a
                # resume must rescan it for the hits that were never consumed
                if stopped:
                    break
                if log is not None:
                    log.block(n, index, checked)

        complete = not stopped
        if log is not None and complete:
            log.record(
                {"end": True, "exhausted": not witnesses, "spaces_checked": sum(checked_by_n.values())}
            )

    return MiningResult(query, witnesses, complete, sum(checked_by_n.values()), checked_by_n)


@dataclass
class CensusRow:
    n: int
    symmetry: str
    labeled_gt_count: int
    labeled_pair_count: int
    canonical_pair_count: int
    axiom_counts: dict[str, int]
    constraint: str | None = None
    orbit_check: bool | None = None

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "symmetry": self.symmetry,
            "labeled_gt_count": self.labeled_gt_count,
            "labeled_pair_count": self.labeled_pair_count,
            "canonical_pair_count": self.canonical_pair_count,
            "axiom_counts": self.axiom_counts,
            "constraint": self.constraint,
            "orbit_check": self.orbit_check,
        }


# The distinct pair kernels: bit k of a verdict word is kernel k's verdict.
# There are seven, so a word fits in the byte ``verdict_words`` reads it from.
WORD_KERNELS = tuple(dict.fromkeys(PAIR_KERNELS.values()))
_AXIOM_BITS = {name: 1 << WORD_KERNELS.index(kernel) for name, kernel in PAIR_KERNELS.items()}


def word_verdicts(word: int) -> dict[str, bool]:
    """The nine verdicts a verdict word holds, in the order of AXIOM_NAMES."""
    return {name: bool(word & bit) for name, bit in _AXIOM_BITS.items()}


_BYTE_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _spread(row: int, count: int) -> int:
    """Bit p of ``row`` (of ``count`` bits) moved to bit 8p: a byte per bit."""
    return int.from_bytes(format(row, f"0{count}b").encode().translate(_BYTE_DIGITS), "big")


def verdict_words(n: int, pairs, max_open_sets: int | None = None):
    """Yield the verdict word of each index pair (i, j) of ``pairs``, in order.

    Both topologies of every pair must be admitted by ``max_open_sets``.
    The kernel columns (cached, built on the first pair) hold the admitted
    topologies only, and a position map takes an index to its place in
    them; with no bound every topology is admitted.  The pairs of one
    first index i that follow each other share one int row per kernel;
    the rows are spread to a byte per place and added, kernel k's at bit
    k, so the word of (i, j) is the byte at the place of j.  The
    implication chain of ``axiom_profile`` is asserted on every distinct
    word, which covers every pair that has it.  The tests hold the words
    against ``axiom_profile`` on canonical pairs.
    """
    gts = gts_on(n)
    position = {index: k for k, index in enumerate(_admitted(n, max_open_sets))}
    columns = [(kernel, _kernel_column(n, kernel, max_open_sets)) for kernel in WORD_KERNELS]
    seen: set[int] = set()
    count = len(position)
    for i, group in groupby(pairs, key=operator.itemgetter(0)):
        rows = (kernel.verdicts(column, position[i]) for kernel, column in columns)
        words = sum(_spread(row, count) << k for k, row in enumerate(rows)).to_bytes(count, "little")
        for _, j in group:
            word = words[position[j]]
            if word not in seen:
                check_implication_chain(word_verdicts(word), GbtSpace(gts[i].ground, gts[i], gts[j]))
                seen.add(word)
            yield word


def _census_lines(n: int):
    """A function giving the census log line of the pair (i, j) with verdict word ``word``.

    A line is assembled from cached JSON fragments: each topology's
    ``open_labels`` and each word's profile are serialized once.  It is
    byte-identical to ``_dump`` of the record with the pair's
    ``canonical_index_key``, its space (points, then each topology's
    ``open_labels``) and ``word_verdicts(word)``.
    """
    gts = gts_on(n)
    points = _compact(gts[0].ground.names)
    labels = lru_cache(maxsize=None)(lambda i: _compact(gts[i].open_labels))
    profile = lru_cache(maxsize=None)(lambda word: _compact(word_verdicts(word)))

    def line(i: int, j: int, word: int) -> str:
        return (
            f'{{"key":"{canonical_index_key(n, i, j).hex()}","profile":{profile(word)},'
            f'"space":{{"mu1":{labels(i)},"mu2":{labels(j)},"points":{points}}}}}\n'
        )

    return line


def census(
    n: int,
    symmetry: str = "perm",
    max_open_sets: int | None = None,
    log_path=None,
    resume_path=None,
) -> CensusRow:
    """Count topologies, pairs, canonical classes and axiom classes at size n.

    ``max_open_sets`` bounds the number of nonempty opens per family for
    constrained sweeps at sizes where the full pair space is large; the
    bound is recorded on the row so a partial census is never mistaken
    for a total one.  For n <= 3 the row also carries the
    orbit-stabilizer check of the canonical pair count.

    Verdicts come from ``verdict_words`` and each logged key from
    ``canonical_index_key``; a logged space lists each topology's cached
    ``open_labels``.  Their oracles are ``axiom_profile``,
    ``canonical_key`` and ``space_to_data``, which the tests compare.
    """
    check_symmetry(symmetry)
    check_size(n)
    if max_open_sets is not None and max_open_sets < 0:
        raise ValueError(f"max_open_sets must be at least 0, got {max_open_sets}")
    _refuse_used_log(log_path, resume_path)
    admitted = set(_admitted(n, max_open_sets))
    admitted_count = len(admitted)
    pairs = [
        pair
        for pair in canonical_pair_indices(n, symmetry)
        if pair[0] in admitted and pair[1] in admitted
    ]
    header = {
        "header": {"n": n, "symmetry": symmetry, "max_open_sets": max_open_sets},
        "log": "census",
    }

    done_blocks: dict[tuple[int, int], int] = {}
    axiom_counts: Counter[str] = Counter()
    if resume_path is not None:
        for record in _replay(resume_path, header, done_blocks):
            if "key" in record:
                axiom_counts.update(name for name, value in record["profile"].items() if value)

    word_counts: Counter[int] = Counter()
    with _appending(log_path, header, resume_path) as log:
        line = _census_lines(n)
        for index, (lo, hi) in enumerate(_blocks(len(pairs))):
            if (n, index) in done_blocks:
                continue
            block = pairs[lo:hi]
            for (i, j), word in zip(block, verdict_words(n, block, max_open_sets)):
                word_counts[word] += 1
                if log is not None:
                    log.line(line(i, j, word))
            if log is not None:
                log.block(n, index, hi - lo)
    for word, count in word_counts.items():
        axiom_counts.update({name: count for name, value in word_verdicts(word).items() if value})

    orbit_ok = None
    if n <= 3:
        total = sum(pair_orbit_size(n, i, j, symmetry) for i, j in pairs)
        orbit_ok = total == admitted_count * admitted_count

    return CensusRow(
        n=n,
        symmetry=symmetry,
        labeled_gt_count=admitted_count,
        labeled_pair_count=admitted_count * admitted_count,
        canonical_pair_count=len(pairs),
        axiom_counts=dict(sorted(axiom_counts.items())),
        constraint=None if max_open_sets is None else f"open-sets<={max_open_sets}",
        orbit_check=orbit_ok,
    )


@dataclass(frozen=True)
class SetWitness:
    """A space together with the subsets exhibiting a set-level phenomenon."""

    space: GbtSpace
    description: str
    key: bytes

    def as_dict(self) -> dict:
        return {
            "key": self.key.hex(),
            "space": space_to_data(self.space),
            "description": self.description,
        }


def _spaces_up_to(n_max: int):
    """Every canonical space on 1 to ``n_max`` points; refuses a scope with none."""
    if n_max < 1:
        raise ValueError(f"n must be at least 1, got {n_max}")
    check_size(n_max)
    return chain.from_iterable(map(enumerate_gbt_pairs, range(1, n_max + 1)))


def find_note50_witness(n_max: int) -> tuple[SetWitness | None, int]:
    """Singleton that is pairwise λ-closed but not an intersection of its
    two wedges; such a set separates the two notions."""
    checked = 0
    for space in _spaces_up_to(n_max):
        checked += 1
        escaped = space.pairwise_lambda_closed & ~space.wedge12_sets
        for x in range(space.ground.size):
            if escaped >> (1 << x) & 1:
                label = space.ground.names[x]
                return (
                    SetWitness(
                        space,
                        f"singleton {{{label}}} is pairwise λ-closed but not a ∧12-set",
                        canonical_key(space),
                    ),
                    checked,
                )
    return None, checked


def _find_g_combination_violation(n_max: int, combine, verb: str) -> tuple[SetWitness | None, int]:
    checked = 0
    for space in _spaces_up_to(n_max):
        checked += 1
        label = space.ground.label
        for side, g in space.g_closed.items():
            g_masks = members(g)
            for a in g_masks:
                for b in g_masks:
                    if b <= a:
                        continue
                    u = combine(a, b)
                    if not g >> u & 1:
                        return (
                            SetWitness(
                                space,
                                f"{label(a)} and {label(b)} are g-closed on side "
                                f"{side} but their {verb} {label(u)} is not",
                                canonical_key(space),
                            ),
                            checked,
                        )
    return None, checked


def find_g_union_violation(n_max: int) -> tuple[SetWitness | None, int]:
    """Two g-closed sets whose union is not g-closed."""
    return _find_g_combination_violation(n_max, lambda a, b: a | b, "union")


def find_g_intersection_violation(n_max: int) -> tuple[SetWitness | None, int]:
    """Two g-closed sets whose intersection is not g-closed."""
    return _find_g_combination_violation(n_max, lambda a, b: a & b, "intersection")


SPECIAL_QUERIES = {
    "note50-converse": find_note50_witness,
    "g-union-escape": find_g_union_violation,
    "g-intersection-escape": find_g_intersection_violation,
}
