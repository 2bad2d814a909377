"""Counterexample mining and census over the enumerated space universe.

A mining query asks for spaces on which a set of axioms holds while one
further axiom fails.  The sweep covers every labeled pair of topologies
in the requested size range; under the perm+swap symmetry only unordered
index pairs are scanned, which is sound because all nine axioms are
swap-invariant (a property the test suite verifies for the deciders and
the pair kernels).  Each hit stands for the least index pair of its
orbit (``canonical_index_pair``), by which witnesses are deduplicated, and
every witness is re-verified with the cross-validated profile before it
is returned.  A query that completes its sweep without any hit yields a
verified-exhausted result whose checked-space count documents the proof.

The sweep decides pairs with the pair kernels of ``axioms.PAIR_KERNELS``:
each topology of a size level gets a few packed integers per axiom the
query names, and the level's column of them is built once, on first use,
from bit-sliced operator tables made by one pass over all the level's
topologies and shared by every kernel of the level (``_tables``).  A row
of pairs (first index i fixed) is then one int per kernel, bit j the
verdict on (i, j), made by a few big-int ORs; the query's hits are the
set bits of the antecedents' rows and of the complement of the
consequent's.  The deciders are the kernels' oracles: ``mine`` decides
every hit it reads again with ``evaluate_axiom``, before finding its
canonical pair, and a disagreement raises InternalDisagreementError.  That
covers every hit of a block that completes; only the hits after the
witness limit, in the block it interrupts, are never read.

A census and the implication lattice decide pairs with every kernel at
once: ``verdict_words`` gives each index pair a verdict
word, one bit per distinct kernel (the word layer of ``axioms``:
``WORD_KERNELS``, ``AXIOM_BITS``), read from the int rows made once per
first index, and asserts on every word the implication chain that
``axiom_profile`` asserts (``check_implication_chain``).  The kernel
columns hold only the topologies a census's
``max_open_sets`` bound admits, found through a position map; without a
bound (the unbounded census, the lattice and ``mine``) that is
every topology.  A bounded census enumerates the canonical pairs of its
admitted topologies only (the ``among`` mask of
``canonical_pair_indices``); the bound counts opens, so it never splits
an orbit.  The pairs of ``canonical_pair_indices`` are minimal in
encoding order, so each logged key is ``canonical_index_key`` of the
pair's indices, and a logged space lists each topology's cached
``open_labels``.  A census log line is assembled from JSON fragments made
once: each topology's key hex and labels and each verdict word's
profile; its bytes are those of ``_dump`` of the record.
``axiom_profile``, ``canonical_key`` and ``space_to_data`` are the tests'
oracles for them.

Both sweeps walk their levels in fixed-size blocks (``_block_walk``):
``mine``'s are ranges of first-coordinate indices, ``census``'s slices
of its canonical pair list.  Block boundaries depend only on the level,
never on the worker count, and block results are consumed strictly in
block order, so the witness stream is identical no matter how many
workers ran the scan.

Both sweeps keep one append-only NDJSON block log (``_BlockLog``).  Its
first line is ``{"header": ..., "log": "mine" | "census"}``; then come
self-contained ``{"key","space","profile"}`` records (mining witnesses,
or every canonical space of a census), each block closed by a flushed
``{"block": [n, index], "checked": c}`` line, and a finished mining run
ends with ``{"end": true, ...}``.  Making the log refuses, before any
work, a log file that is not empty unless it is the resumed log itself:
a second run appended to it would be added up with the first on resume.
Its ``replay`` reads the resumed log one line at a time and decodes only
the header and the block lines: finished blocks go into ``done``, which
the walk skips, and every record line is handed back undecoded, including
those of a block a crash left unfinished.  ``mine`` decodes its few
witness records; a logged witness key is read back to its pair
(``index_pair_of_key``), and one that no run of the query can have
written is refused.  ``census`` decodes none of its records
(``_census_words``): a line's profile text gives its verdict word, and
the k-th record line must be byte for byte the one ``_census_lines``
writes for the k-th pair of the census's list and that word; any other
line is refused.  Only then is the log file opened; one that is missing
or empty starts as a copy of the resumed log, so either file can be
resumed later.  Without a log file the writes do nothing.
"""

from __future__ import annotations

import json
import operator
import os
from collections import Counter
from collections.abc import Sequence
from contextlib import closing
from functools import lru_cache, partial
from itertools import combinations, groupby, islice
from typing import NamedTuple

from .axioms import (
    PAIR_KERNELS,
    WORD_KERNELS,
    AxiomProfile,
    InternalDisagreementError,
    KernelColumn,
    PairKernel,
    SlicedTables,
    axiom_profile,
    chain_break,
    check_implication_chain,
    evaluate_axiom,
    normalize_axiom_name,
    sliced_tables,
    word_verdicts,
)
from .enumeration import (
    BIT_DIGITS,
    canonical_index_key,
    canonical_index_pair,
    canonical_key,  # unused here, but bench/tracing.py patches this name in this module
    canonical_pair_indices,
    check_size,
    check_symmetry,
    gts_on,
    index_pair_of_key,
    key_part_hexes,
    key_width,
    pair_orbit_size,
)
from .gbt import GbtSpace
from .gt import GeneralizedTopology
from .records import FrozenRecord, Record
from .sets import members
from .spacefile import space_to_data

BLOCKS_PER_LEVEL = 32


class MiningQuery(FrozenRecord):
    _fields = ("antecedents", "consequent", "n_min", "n_max", "symmetry", "limit")

    def __init__(
        self,
        antecedents: tuple[str, ...],
        consequent: str,
        n_min: int = 1,
        n_max: int = 3,
        symmetry: str = "perm+swap",
        limit: int = 10,
    ) -> None:
        antecedents = tuple(normalize_axiom_name(a) for a in antecedents)
        consequent = normalize_axiom_name(consequent)
        check_symmetry(symmetry)
        if not 1 <= n_min <= n_max:
            raise ValueError(f"bad size range [{n_min}, {n_max}]")
        check_size(n_max)
        if limit < 1:
            raise ValueError("limit must be positive")
        self._fill(antecedents, consequent, n_min, n_max, symmetry, limit)

    def as_dict(self) -> dict:
        return {
            "antecedents": list(self.antecedents),
            "consequent": self.consequent,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "symmetry": self.symmetry,
            "limit": self.limit,
        }


class Witness(NamedTuple):
    space: GbtSpace
    profile: AxiomProfile
    key: bytes

    def as_dict(self) -> dict:
        return {
            "key": self.key.hex(),
            "space": space_to_data(self.space),
            "profile": self.profile.as_dict(),
        }


class MiningResult(Record):
    _fields = ("query", "witnesses", "complete", "spaces_checked", "checked_by_n")

    def __init__(
        self,
        query: MiningQuery,
        witnesses: list[Witness],
        complete: bool,
        spaces_checked: int,
        checked_by_n: dict[int, int] | None = None,
    ) -> None:
        checked_by_n = {} if checked_by_n is None else checked_by_n
        self._fill(query, witnesses, complete, spaces_checked, checked_by_n)

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
def _tables(n: int, max_open_sets: int | None = None) -> SlicedTables:
    """The sliced operator tables of the admitted topologies, in index order."""
    return sliced_tables(list(map(gts_on(n).__getitem__, _admitted(n, max_open_sets))))


@lru_cache(maxsize=None)
def _kernel_column(n: int, kernel: PairKernel, max_open_sets: int | None = None) -> KernelColumn:
    """The kernel's column over the admitted topologies, in index order;
    every kernel of a level and bound reads the same sliced tables."""
    return kernel.column(_tables(n, max_open_sets))


def _scan_block(n: int, lo: int, hi: int, query: MiningQuery) -> tuple[list[tuple[int, int]], int]:
    """Scan first-coordinate indices [lo, hi); returns hit index pairs and pair count.

    Each row (i fixed) is one int per kernel the query names, bit j the
    verdict on (i, j); the pairs that match the query are the set bits of
    the antecedents' rows and the complement of the consequent's, from
    ``start`` on.  The hits are not decided again here: ``mine`` re-decides
    those it reads (``_redecide``).
    """
    unordered = query.symmetry == "perm+swap"
    consequent = PAIR_KERNELS[query.consequent]
    antecedents = {PAIR_KERNELS[a] for a in query.antecedents}
    columns = {k: _kernel_column(n, k) for k in (*antecedents, consequent)}
    every = columns[consequent].every
    hits: list[tuple[int, int]] = []
    for i in range(lo, hi):
        start = i if unordered else 0
        rows = {k: k.verdicts(column, i) for k, column in columns.items()}
        match = (every & ~rows[consequent]) >> start << start
        for k in antecedents:
            match &= rows[k]
        while match:
            low = match & -match
            match ^= low
            hits.append((i, low.bit_length() - 1))
    return hits, _block_pairs(n, lo, hi, unordered)


def _block_pairs(n: int, lo: int, hi: int, unordered: bool) -> int:
    """The pairs a block with first indices [lo, hi) scans: (i, j) with j >= i
    when ``unordered``, every j otherwise."""
    count = len(gts_on(n))
    return (hi - lo) * count - (sum(range(lo, hi)) if unordered else 0)


def _redecide(query: MiningQuery, t1: GeneralizedTopology, t2: GeneralizedTopology) -> None:
    """Decide a kernel's hit again with the deciders; raise if they reject it."""
    if not all(evaluate_axiom(a, t1, t2) for a in query.antecedents) or evaluate_axiom(
        query.consequent, t1, t2
    ):
        raise InternalDisagreementError(
            f"pair kernel and deciders disagree on {GbtSpace(t1.ground, t1, t2)!r}"
        )


def _block_walk(levels, done, scan, workers: int = 1):
    """Yield (n, index, ``scan(n, lo, hi)``) for each block of each (n, count)
    level that is not in ``done``, in block order.

    With more than one worker (clamped to the CPUs and the blocks) the
    blocks run in a process pool, so ``scan`` must then be picklable; the
    pending blocks are cancelled when the caller stops early.  The pool's
    module is imported here, so a process that runs no pool never loads it.
    """
    tasks = [
        (n, index, lo, hi)
        for n, count in levels
        for index, (lo, hi) in enumerate(_blocks(count))
        if (n, index) not in done
    ]
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        for n, index, lo, hi in tasks:
            yield n, index, scan(n, lo, hi)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(scan, n, lo, hi) for n, _, lo, hi in tasks]
        try:
            for (n, index, _, _), future in zip(tasks, futures):
                yield n, index, future.result()
        finally:
            for future in futures:
                future.cancel()


def _blocks(count: int) -> list[tuple[int, int]]:
    size = max(1, -(-count // BLOCKS_PER_LEVEL))
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _verify_witness(query: MiningQuery, n: int, i: int, j: int) -> Witness:
    """The canonical pair (i, j) as a witness, decided again with cross-validation."""
    gts = gts_on(n)
    space = GbtSpace(gts[i].ground, gts[i], gts[j])
    profile = axiom_profile(space, cross_validate=True)
    verdicts = profile.as_dict()
    if not all(verdicts[a] for a in query.antecedents) or verdicts[query.consequent]:
        raise InternalDisagreementError(f"mined witness fails re-verification: {space!r}")
    return Witness(space, profile, canonical_index_key(n, i, j))


def _logged_pair(query: MiningQuery, text: str) -> tuple[int, int, int]:
    """The (n, i, j) of a logged witness key; refuses a key that a run of
    ``query`` cannot have written."""
    try:
        n, i, j = index_pair_of_key(bytes.fromhex(text))
    except (TypeError, ValueError):
        raise ValueError(f"logged witness key {text!r} is not a space key") from None
    if not query.n_min <= n <= query.n_max:
        raise ValueError(
            f"logged witness key {text!r} has {n} points, outside [{query.n_min}, {query.n_max}]"
        )
    if canonical_index_pair(n, i, j, query.symmetry) != (i, j):
        raise ValueError(f"logged witness key {text!r} is not canonical under {query.symmetry}")
    return n, i, j


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _dump(record: dict) -> str:
    return _compact(record) + "\n"


class _BlockLog:
    """The block log of one run: ``header`` is its first line, ``log_path``
    the file it appends to and ``resume_path`` the log it continues; either
    path may be None."""

    def __init__(self, header: dict, log_path=None, resume_path=None) -> None:
        if log_path is not None and os.path.exists(log_path) and os.path.getsize(log_path):
            if resume_path is None or not os.path.samefile(log_path, resume_path):
                raise ValueError(f"{log_path}: log already holds a run; resume it with --resume {log_path}")
        self._header = header
        self._path = log_path
        self._resumed = resume_path
        self._handle = None
        self.done: Counter[tuple[int, int]] = Counter()  # (n, index) -> spaces checked

    def replay(self):
        """Yield the record lines of the resumed log, if any, undecoded; its
        first line must carry the header, and its block lines are decoded
        and entered in ``done``."""
        if self._resumed is None:
            return
        with open(self._resumed, encoding="utf-8") as handle:
            lines = filter(str.strip, handle)
            first = json.loads(next(lines, "null"))
            if not isinstance(first, dict) or first.get("header") != self._header["header"]:
                why = f"was written for a different {self._header['log']} run" if first else "holds no header"
                raise ValueError(f"{self._resumed}: log {why}")
            for line in lines:
                if line.startswith('{"block":'):
                    record = json.loads(line)
                    n, index = record["block"]
                    self.done[n, index] += record["checked"]
                else:
                    yield line

    def __enter__(self) -> _BlockLog:
        """Open the log; a missing or empty one starts as a copy of the
        resumed log, or else with the header."""
        if self._path is not None:
            self._handle = open(self._path, "a", encoding="utf-8")
            if self._handle.tell() == 0:
                if self._resumed is None:
                    self.record(self._header)
                else:
                    import shutil

                    with open(self._resumed, encoding="utf-8") as source:
                        shutil.copyfileobj(source, self._handle)
        return self

    def __exit__(self, *exc) -> None:
        if self._handle is not None:
            self._handle.close()

    def lines(self, texts) -> None:
        """Append ready lines; ``texts`` is not consumed without a log."""
        if self._handle is not None:
            self._handle.writelines(texts)

    def record(self, record: dict) -> None:
        if self._handle is not None:
            self._handle.write(_dump(record))

    def block(self, n: int, index: int, checked: int) -> None:
        """Close a block; flushed, because it makes every record before it durable."""
        if self._handle is not None:
            self.record({"block": [n, index], "checked": checked})
            self._handle.flush()


def mine(
    query: MiningQuery,
    workers: int = 1,
    log_path=None,
    resume_path=None,
) -> MiningResult:
    """Run a query over every pair of topologies in the size range."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    log = _BlockLog({"header": query.as_dict(), "log": "mine"}, log_path, resume_path)
    witnesses: list[Witness] = []
    seen: set[tuple[int, int, int]] = set()  # the (n, i, j) of each canonical pair found
    ended = False
    for record in map(json.loads, log.replay()):
        if "key" in record:
            pair = _logged_pair(query, record["key"])
            if pair not in seen:
                seen.add(pair)
                witnesses.append(_verify_witness(query, *pair))
        elif record.get("end"):
            ended = True
    checked_by_n: Counter[int] = Counter()
    for (n, _), checked in log.done.items():
        checked_by_n[n] += checked

    levels = [(n, len(gts_on(n))) for n in range(query.n_min, query.n_max + 1)]
    with log:
        if ended or len(witnesses) >= query.limit:
            if not ended:
                # the first block not marked done is the one the limit
                # interrupted; the run that stopped there counted its pairs
                count_pairs = partial(_block_pairs, unordered=query.symmetry == "perm+swap")
                for n, _, checked in islice(_block_walk(levels, log.done, count_pairs), 1):
                    checked_by_n[n] += checked
            return MiningResult(query, witnesses, ended, sum(checked_by_n.values()), checked_by_n)
        stopped = False
        scan = partial(_scan_block, query=query)
        with closing(_block_walk(levels, log.done, scan, workers)) as results:
            for n, index, (hits, checked) in results:
                checked_by_n[n] += checked
                gts = gts_on(n)
                # every hit read is re-decided, so every hit of a block that
                # completes is; those after a witness limit are never read
                for i, j in hits:
                    _redecide(query, gts[i], gts[j])
                    pair = (n, *canonical_index_pair(n, i, j, query.symmetry))
                    if pair in seen:
                        continue
                    seen.add(pair)
                    witness = _verify_witness(query, *pair)
                    witnesses.append(witness)
                    log.record(witness.as_dict())
                    if len(witnesses) >= query.limit:
                        stopped = True
                        break
                # a block interrupted by the witness limit is not durable: a
                # resume must rescan it for the hits that were never consumed
                if stopped:
                    break
                log.block(n, index, checked)

        if not stopped:
            log.record(
                {"end": True, "exhausted": not witnesses, "spaces_checked": sum(checked_by_n.values())}
            )

    return MiningResult(query, witnesses, not stopped, sum(checked_by_n.values()), checked_by_n)


class CensusRow(Record):
    _fields = (
        "n", "symmetry", "labeled_gt_count", "labeled_pair_count", "canonical_pair_count", "axiom_counts",
        "constraint", "orbit_check",
    )

    def __init__(
        self,
        n: int,
        symmetry: str,
        labeled_gt_count: int,
        labeled_pair_count: int,
        canonical_pair_count: int,
        axiom_counts: dict[str, int],
        constraint: str | None = None,
        orbit_check: bool | None = None,
    ) -> None:
        counts = (labeled_gt_count, labeled_pair_count, canonical_pair_count)
        self._fill(n, symmetry, *counts, axiom_counts, constraint, orbit_check)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


# verdict_words spreads a group of this many pairs or more.  At n = 4 (2 cores, Python 3.11.7) a group
# of 32 pairs took 97 µs read bit by bit, one of 40 took 111-120 µs, and either took 97-109 µs spread.
SPREAD_GROUP = 36


def _spread(row: int, count: int) -> int:
    """Bit p of ``row`` (of ``count`` bits) moved to bit 8p: a byte per bit."""
    return int.from_bytes(format(row, f"0{count}b").encode().translate(BIT_DIGITS), "big")


def verdict_words(n: int, pairs, max_open_sets: int | None = None):
    """Yield the verdict word of each index pair (i, j) of ``pairs``, in order,
    from dense rows: census and lattice read these, the claims sweep the
    equal words of ``claim_kernels.block_words``.

    Both topologies of every pair must be admitted by ``max_open_sets``.
    The kernel columns (cached, built on the first pair) hold the admitted
    topologies only, and a position map takes an index to its place in
    them; with no bound every topology is admitted.  The pairs of one
    first index i that follow each other share one int row per kernel: a
    group of ``SPREAD_GROUP`` or more spreads them to a byte per place and
    adds them, kernel k's at bit k, so the word of (i, j) is the byte at the
    place of j; a smaller group reads each pair's bits from them.  The
    implication chain of ``axiom_profile`` is asserted on every distinct
    word, and only a word that breaks it builds a space, to name its pair.
    """
    gts = gts_on(n)
    position = {index: k for k, index in enumerate(_admitted(n, max_open_sets))}
    columns = [(kernel, _kernel_column(n, kernel, max_open_sets)) for kernel in WORD_KERNELS]
    seen: set[int] = set()
    count = len(position)
    for i, group in groupby(pairs, key=operator.itemgetter(0)):
        rows = [kernel.verdicts(column, position[i]) for kernel, column in columns]
        seconds = [j for _, j in group]
        if len(seconds) < SPREAD_GROUP:
            words = [sum((row >> position[j] & 1) << k for k, row in enumerate(rows)) for j in seconds]
        else:
            spread = sum(_spread(row, count) << k for k, row in enumerate(rows)).to_bytes(count, "little")
            words = [spread[position[j]] for j in seconds]
        for j, word in zip(seconds, words):
            if word not in seen:
                if chain_break(word):
                    check_implication_chain(word, GbtSpace(gts[i].ground, gts[i], gts[j]))
                seen.add(word)
            yield word


@lru_cache(maxsize=None)
def _profile_texts() -> tuple[str, ...]:
    """The JSON text of each verdict word's profile, indexed by the word."""
    return tuple(_compact(word_verdicts(word)) for word in range(1 << len(WORD_KERNELS)))


def _census_lines(n: int, max_open_sets: int | None = None):
    """A function giving the census log line of the pair (i, j) of admitted
    topologies with verdict word ``word``.

    A line is assembled from JSON fragments made once: each admitted
    topology's key hex and ``open_labels`` and each word's profile.  It is
    byte-identical to ``_dump`` of the record with the pair's
    ``canonical_index_key``, its space (points, then each topology's
    ``open_labels``) and ``word_verdicts(word)``; a topology the bound does
    not admit raises KeyError.
    """
    gts = gts_on(n)
    size = bytes([n]).hex()
    keys = list(key_part_hexes(n))
    labels = {i: _compact(gts[i].open_labels) for i in _admitted(n, max_open_sets)}
    points = _compact(gts[0].ground.names)
    profiles = _profile_texts()

    def line(i: int, j: int, word: int) -> str:
        return (
            f'{{"key":"{size}{keys[i]}{keys[j]}","profile":{profiles[word]},'
            f'"space":{{"mu1":{labels[i]},"mu2":{labels[j]},"points":{points}}}}}\n'
        )

    return line


def _census_words(n: int, line, pairs, lines, where):
    """The verdict word of each census record line, read without decoding it.

    The profile text gives the word, from a map of the profiles of the
    words that keep the implication chain (``chain_break``); the k-th line
    must then be byte-identical to ``line(*pairs[k], word)``, the census's
    own line (``_census_lines``) for the k-th pair of its list, so a line
    that the census would not have written there raises ValueError.
    """
    words = {text: word for word, text in enumerate(_profile_texts()) if chain_break(word) is None}
    start = len('{"key":"00","profile":') + 4 * key_width(n)  # after the size byte and both key parts
    for k, text in enumerate(lines):
        try:
            word = words[text[start : text.index("}", start) + 1]]
            known = text == line(*pairs[k], word)
        except (KeyError, ValueError, IndexError):
            known = False
        if not known:
            raise ValueError(f"{where}: not a record of this census: {text.rstrip()!r}")
        yield word


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
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    check_size(n)
    if max_open_sets is not None and max_open_sets < 0:
        raise ValueError(f"max_open_sets must be at least 0, got {max_open_sets}")
    header = {"n": n, "symmetry": symmetry, "max_open_sets": max_open_sets}
    log = _BlockLog({"header": header, "log": "census"}, log_path, resume_path)
    admitted = _admitted(n, max_open_sets)
    admitted_count = len(admitted)
    among = None if max_open_sets is None else sum(1 << i for i in admitted)
    pairs = list(canonical_pair_indices(n, symmetry, among))

    line = _census_lines(n, max_open_sets)
    word_counts = Counter(_census_words(n, line, pairs, log.replay(), resume_path))
    with log:
        for _, index, block in _block_walk([(n, len(pairs))], log.done, lambda _, lo, hi: pairs[lo:hi]):
            words = list(verdict_words(n, block, max_open_sets))
            word_counts.update(words)
            log.lines(line(i, j, word) for (i, j), word in zip(block, words))
            log.block(n, index, len(block))
    axiom_counts: Counter[str] = Counter()
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


class SetWitness(NamedTuple):
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


def _first_witness(n_max: int, describe) -> tuple[SetWitness | None, int]:
    """The first canonical space on 1 to ``n_max`` points, in the order of
    ``canonical_pair_indices``, that ``describe`` has a description of, and
    the number of spaces scanned; refuses a scope with none."""
    if n_max < 1:
        raise ValueError(f"n must be at least 1, got {n_max}")
    check_size(n_max)
    checked = 0
    for n in range(1, n_max + 1):
        gts = gts_on(n)
        for i, j in canonical_pair_indices(n):
            checked += 1
            space = GbtSpace(gts[0].ground, gts[i], gts[j])
            description = describe(space)
            if description is not None:
                return SetWitness(space, description, canonical_index_key(n, i, j)), checked
    return None, checked


def _note50_escape(space: GbtSpace) -> str | None:
    escaped = space.pairwise_lambda_closed & ~space.wedge12_sets
    for x, name in enumerate(space.ground.names):
        if escaped >> (1 << x) & 1:
            return f"singleton {{{name}}} is pairwise λ-closed but not a ∧12-set"
    return None


def _g_combination_escape(space: GbtSpace, combine, verb: str) -> str | None:
    label = space.ground.label
    for side, g in space.g_closed.items():
        for a, b in combinations(members(g), 2):
            u = combine(a, b)
            if not g >> u & 1:
                return f"{label(a)} and {label(b)} are g-closed on side {side} but their {verb} {label(u)} is not"
    return None


def find_note50_witness(n_max: int) -> tuple[SetWitness | None, int]:
    """Singleton that is pairwise λ-closed but not an intersection of its
    two wedges; such a set separates the two notions."""
    return _first_witness(n_max, _note50_escape)


def find_g_union_violation(n_max: int) -> tuple[SetWitness | None, int]:
    """Two g-closed sets whose union is not g-closed."""
    return _first_witness(n_max, lambda space: _g_combination_escape(space, operator.or_, "union"))


def find_g_intersection_violation(n_max: int) -> tuple[SetWitness | None, int]:
    """Two g-closed sets whose intersection is not g-closed."""
    return _first_witness(n_max, lambda space: _g_combination_escape(space, operator.and_, "intersection"))


SPECIAL_QUERIES = {
    "note50-converse": find_note50_witness,
    "g-union-escape": find_g_union_violation,
    "g-intersection-escape": find_g_intersection_violation,
}
