from __future__ import annotations

import concurrent.futures
import hashlib
import json
import random
from collections import Counter
from concurrent.futures import Future
from functools import lru_cache

import pytest

from gbtlab import axioms, mining
from gbtlab import lattice as lattice_module
from gbtlab.axioms import (
    PAIR_KERNELS,
    InternalDisagreementError,
    PairKernel,
    UnknownAxiomError,
    axiom_profile,
    check_implication_chain,
    evaluate_axiom,
    sliced_tables,
)
from gbtlab.enumeration import canonical_key, canonical_pair_indices, enumerate_gbt_pairs, gts_on
from gbtlab.lattice import implication_lattice
from gbtlab.mining import (
    SPECIAL_QUERIES,
    MiningQuery,
    census,
    find_g_intersection_violation,
    find_g_union_violation,
    find_note50_witness,
    mine,
    verdict_words,
    word_verdicts,
)
from gbtlab.gbt import GbtSpace, is_pairwise_lambda_closed, is_wedge12_set
from gbtlab.spacefile import space_to_data


def test_query_validation():
    with pytest.raises(UnknownAxiomError):
        MiningQuery(("T9",), "T0")
    with pytest.raises(ValueError):
        MiningQuery(("T0",), "T1", n_min=3, n_max=2)
    q = MiningQuery(("t1/4",), "t3/8")
    assert q.antecedents == ("T1_4",) and q.consequent == "T3_8"


def test_t0_without_quarter_has_witness():
    result = mine(MiningQuery(("T0",), "T1_4", n_max=3, limit=3))
    assert result.witnesses
    for witness in result.witnesses:
        verdicts = witness.profile.as_dict()
        assert verdicts["T0"] and not verdicts["T1_4"]


def test_quarter_equals_three_eighth_on_small_range():
    result = mine(MiningQuery(("T1_4",), "T3_8", n_max=3, limit=1))
    assert result.exhausted
    assert result.spaces_checked == 3 + 28 + 61 * 62 // 2


def test_witnesses_are_canonical_and_deduplicated():
    result = mine(MiningQuery(("T1",), "T1_2", n_max=3, limit=50))
    keys = [w.key for w in result.witnesses]
    assert len(keys) == len(set(keys))
    from gbtlab.enumeration import canonical_key

    for witness in result.witnesses:
        assert canonical_key(witness.space, "perm+swap") == witness.key


def test_mine_deterministic_across_runs_and_workers():
    query = MiningQuery(("T0",), "T1_2", n_max=3, limit=7)
    first = mine(query)
    second = mine(query)
    assert [w.key for w in first.witnesses] == [w.key for w in second.witnesses]
    parallel = mine(query, workers=2)
    assert [w.key for w in parallel.witnesses] == [w.key for w in first.witnesses]
    assert parallel.spaces_checked == first.spaces_checked


def test_mine_log_and_resume(tmp_path):
    query = MiningQuery(("T1",), "R0", n_max=3, limit=4)
    log_a = tmp_path / "a.ndjson"
    full_run = mine(query, log_path=log_a)

    # byte-exact reproducibility of the log
    log_b = tmp_path / "b.ndjson"
    mine(query, log_path=log_b)
    assert log_a.read_bytes() == log_b.read_bytes()

    # truncate after the first completed block, then resume
    lines = log_a.read_text().splitlines(keepends=True)
    block_positions = [i for i, line in enumerate(lines) if "block" in json.loads(line)]
    cut = block_positions[0] + 1
    partial = tmp_path / "partial.ndjson"
    partial.write_text("".join(lines[:cut]))
    resumed = mine(query, log_path=partial, resume_path=partial)
    assert [w.key for w in resumed.witnesses] == [w.key for w in full_run.witnesses]
    assert resumed.spaces_checked == full_run.spaces_checked

    # a finished log resumes to the same result without rescanning
    replay = mine(query, resume_path=log_a)
    assert [w.key for w in replay.witnesses] == [w.key for w in full_run.witnesses]


@pytest.mark.parametrize(
    "query",
    [
        MiningQuery(("T1_4",), "T3_8"),
        MiningQuery(("T0",), "T1_2", symmetry="perm"),
        MiningQuery(("T1", "SYM"), "R0"),
        MiningQuery(("LSYM", "T0"), "T1", symmetry="perm"),
        MiningQuery(("T5_8",), "LSYM"),
        MiningQuery((), "T0", symmetry="perm"),
    ],
)
def test_scan_block_matches_a_decider_scan(query):
    for n in range(1, 4):
        gts = gts_on(n)
        for lo, hi in mining._blocks(len(gts)):
            starts = {i: i if query.symmetry == "perm+swap" else 0 for i in range(lo, hi)}
            hits = [
                (i, j)
                for i, start in starts.items()
                for j in range(start, len(gts))
                if all(evaluate_axiom(a, gts[i], gts[j]) for a in query.antecedents)
                and not evaluate_axiom(query.consequent, gts[i], gts[j])
            ]
            checked = sum(len(gts) - start for start in starts.values())
            assert mining._scan_block(n, lo, hi, query) == (hits, checked), (n, lo)


def test_kernel_hit_that_the_deciders_reject_is_an_error(monkeypatch):
    monkeypatch.setattr(mining, "evaluate_axiom", lambda name, t1, t2: False)
    with pytest.raises(InternalDisagreementError, match="pair kernel"):
        mine(MiningQuery(("T0",), "T1_4", n_max=3))


def test_a_limited_query_decides_again_only_the_hits_it_reads(monkeypatch):
    """Each hit read up to the witness limit is decided again, one call per
    axiom of the query; the unread hits of the block that the limit
    interrupts are not."""
    query = MiningQuery(("T1",), "R0", n_max=3, limit=4)
    read = scanned = 0
    keys = set()
    blocks = ((n, lo, hi) for n in range(1, 4) for lo, hi in mining._blocks(len(gts_on(n))))
    for n, lo, hi in blocks:
        if len(keys) == query.limit:
            break
        hits, _ = mining._scan_block(n, lo, hi, query)
        scanned += len(hits)
        gts = gts_on(n)
        for i, j in hits:
            read += 1
            keys.add(canonical_key(GbtSpace(gts[i].ground, gts[i], gts[j])))
            if len(keys) == query.limit:
                break
    assert (read, scanned) == (6, 40)
    calls = []

    def counted(name, t1, t2):
        calls.append(name)
        return evaluate_axiom(name, t1, t2)

    monkeypatch.setattr(mining, "evaluate_axiom", counted)
    result = mine(query)
    assert {w.key for w in result.witnesses} == keys and not result.complete
    assert calls == ["T1", "R0"] * read


def test_mine_and_its_resume_compute_no_permutation_search_key(tmp_path, monkeypatch):
    """Hits are keyed by their least orbit index pair, and a resume reads
    each logged key back to its pair."""
    query = MiningQuery(("T0",), "T1_2", n_max=3, limit=40)
    want = mine(query)
    assert len(want.witnesses) == 40

    def search(*args, **kwargs):
        raise AssertionError("canonical_key was called")

    monkeypatch.setattr(mining, "canonical_key", search)
    full = tmp_path / "full.ndjson"
    assert mine(query, log_path=full).as_dict() == want.as_dict()
    cut = tmp_path / "cut.ndjson"
    cut.write_text(_boundary_cuts(full)[-1])
    assert mine(query, resume_path=cut).as_dict() == want.as_dict()
    replay = mine(query, resume_path=full)
    assert [w.as_dict() for w in replay.witnesses] == [w.as_dict() for w in want.witnesses]


def test_resume_rejects_other_query(tmp_path):
    log = tmp_path / "log.ndjson"
    mine(MiningQuery(("T1",), "R0", n_max=2), log_path=log)
    with pytest.raises(ValueError):
        mine(MiningQuery(("T1",), "SYM", n_max=2), resume_path=log)


def test_special_searches_verify():
    witness, checked = find_note50_witness(3)
    assert witness is not None and checked >= 1
    space = witness.space
    label = witness.description.split("{")[1].split("}")[0]
    from gbtlab.sets import parse_subset

    single = parse_subset([label], space.ground)
    assert is_pairwise_lambda_closed(space, single)
    assert not is_wedge12_set(space, single)

    union_hit, _ = find_g_union_violation(3)
    assert union_hit is not None

    inter_hit, _ = find_g_intersection_violation(3)
    assert inter_hit is not None


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SPECIAL_QUERIES))
def test_a_set_level_finder_keys_the_first_space_it_describes(monkeypatch, name, n):
    """A finder walks the canonical spaces in the order of the chained
    ``enumerate_gbt_pairs`` stream, and keys its witness by the index pair,
    which is the space's ``canonical_key``, without that permutation search."""

    def search(*args, **kwargs):
        raise AssertionError("canonical_key was called")

    monkeypatch.setattr(mining, "canonical_key", search)
    stream = [space for level in range(1, n + 1) for space in enumerate_gbt_pairs(level)]
    witness, checked = SPECIAL_QUERIES[name](n)
    if witness is None:
        assert checked == len(stream)
    else:
        assert witness.space == stream[checked - 1]
        assert witness.key == canonical_key(witness.space)


def test_census_small_values():
    row1 = census(1)
    assert (row1.labeled_gt_count, row1.labeled_pair_count) == (2, 4)
    assert row1.canonical_pair_count == 4 and row1.orbit_check is True
    row2 = census(2)
    assert (row2.labeled_gt_count, row2.labeled_pair_count) == (7, 49)
    assert row2.canonical_pair_count == 29
    row2s = census(2, symmetry="perm+swap")
    assert row2s.canonical_pair_count == 18 and row2s.orbit_check is True


def test_census_axiom_chain_counts():
    row = census(3)
    counts = row.axiom_counts
    assert counts["T1_2"] <= counts["T5_8"] <= counts["T3_8"] <= counts["T1_4"] <= counts["T0"]


def test_census_constrained_sweep_is_labeled_as_such():
    row = census(3, max_open_sets=2)
    assert row.constraint == "open-sets<=2"
    assert row.labeled_gt_count < 61
    assert row.labeled_pair_count == row.labeled_gt_count**2


def test_census_log_resume(tmp_path):
    log = tmp_path / "census.ndjson"
    row = census(2, log_path=log)
    lines = log.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    witness_records = [r for r in records if "key" in r]
    assert len(witness_records) == row.canonical_pair_count
    assert all(set(r) == {"key", "space", "profile"} for r in witness_records)

    cut_index = next(i for i, r in enumerate(records) if "block" in r) + 1
    partial = tmp_path / "partial.ndjson"
    partial.write_text("\n".join(lines[:cut_index]) + "\n")
    resumed = census(2, resume_path=partial)
    assert resumed.axiom_counts == row.axiom_counts


# verdict words -----------------------------------------------------------


def _assert_words_match_profiles(n, pairs, max_open_sets=None):
    gts = gts_on(n)
    for (i, j), word in zip(pairs, verdict_words(n, pairs, max_open_sets), strict=True):
        want = axiom_profile(GbtSpace(gts[i].ground, gts[i], gts[j])).as_dict()
        assert word_verdicts(word) == want, (n, i, j)


@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
def test_verdict_words_match_axiom_profile(symmetry):
    for n in (1, 2, 3):
        _assert_words_match_profiles(n, list(canonical_pair_indices(n, symmetry)))


@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
def test_verdict_words_match_axiom_profile_on_sampled_n4_pairs(symmetry):
    pairs = list(canonical_pair_indices(4, symmetry))
    _assert_words_match_profiles(4, random.Random(11).sample(pairs, 400))


@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_bounded_verdict_words_match_axiom_profile(symmetry, bound):
    """Columns over the admitted topologies only, read through the position map."""
    gts = gts_on(3)
    admitted = {i for i, t in enumerate(gts) if len(t.opens) - 1 <= bound}
    pairs = [(i, j) for i, j in canonical_pair_indices(3, symmetry) if {i, j} <= admitted]
    _assert_words_match_profiles(3, pairs, bound)


def test_a_bounded_census_builds_signatures_of_admitted_topologies_only(monkeypatch):
    """The kernel columns are sliced from one table pass over the admitted
    topologies, in index order, which all seven kernels share."""
    sliced = []

    def counted(topologies):
        sliced.append([id(t) for t in topologies])
        return sliced_tables(topologies)

    monkeypatch.setattr(mining, "sliced_tables", counted)
    for cached in ("_tables", "_kernel_column"):  # fresh caches, so the columns are built here
        monkeypatch.setattr(mining, cached, lru_cache(maxsize=None)(getattr(mining, cached).__wrapped__))
    row = census(3, "perm+swap", max_open_sets=2)
    admitted = [t for t in gts_on(3) if len(t.opens) - 1 <= 2]
    assert row.labeled_gt_count == len(admitted) < len(gts_on(3))
    assert sliced == [[id(t) for t in admitted]]
    assert mining._kernel_column.cache_info().currsize == len(mining.WORD_KERNELS)


@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
def test_census_lines_equal_the_dumped_records(symmetry):
    """Every census record up to three points, assembled from fragments,
    against ``_dump`` of the record built by the per-space oracles."""
    for n in (1, 2, 3):
        gts = gts_on(n)
        line = mining._census_lines(n)
        pairs = list(canonical_pair_indices(n, symmetry))
        for (i, j), word in zip(pairs, verdict_words(n, pairs), strict=True):
            space = GbtSpace(gts[i].ground, gts[i], gts[j])
            record = {
                "key": canonical_key(space, symmetry).hex(),
                "space": space_to_data(space),
                "profile": axiom_profile(space).as_dict(),
            }
            assert line(i, j, word) == mining._dump(record), (n, i, j)


def test_a_word_that_breaks_the_implication_chain_is_an_error(monkeypatch):
    t_half_only = mining._AXIOM_BITS["T1_2"]  # T1/2 holds, T5/8 fails
    with pytest.raises(InternalDisagreementError, match="T1_2 holds but T5_8 fails"):
        check_implication_chain(word_verdicts(t_half_only), "a hand-made word")
    # a T1/2 kernel that holds everywhere makes such words in the sweeps
    t_half = PAIR_KERNELS["T1_2"]
    forced = PairKernel(t_half.slices, lambda column, *signature: column.every)
    kernels = tuple(forced if k is t_half else k for k in mining.WORD_KERNELS)
    monkeypatch.setattr(mining, "WORD_KERNELS", kernels)
    for sweep in (census, implication_lattice):
        with pytest.raises(InternalDisagreementError, match="implication chain broken on GbtSpace"):
            sweep(2)


def test_census_and_lattice_decide_no_space_one_by_one(tmp_path, monkeypatch):
    def per_space(*args, **kwargs):
        raise AssertionError("a per-space route was called")

    lattice = implication_lattice(3)
    for module in (mining, lattice_module):
        for name in ("axiom_profile", "canonical_key", "space_to_data"):
            monkeypatch.setattr(module, name, per_space, raising=False)
    log = tmp_path / "census.ndjson"
    census(3, log_path=log)
    assert hashlib.sha256(log.read_bytes()).hexdigest() == CENSUS_N3_LOG_SHA256
    assert implication_lattice(3) == lattice


def test_resuming_a_finished_census_builds_no_kernel_columns(tmp_path, monkeypatch):
    log = tmp_path / "census.ndjson"
    row = census(3, log_path=log)

    def column(*args, **kwargs):
        raise AssertionError("a kernel column or slice was built")

    monkeypatch.setattr(mining, "_kernel_column", column)
    monkeypatch.setattr(mining, "sliced_tables", column)
    monkeypatch.setattr(PairKernel, "column", column)
    monkeypatch.setattr(axioms, "_sliced", column)
    assert census(3, resume_path=log) == row


# block log ---------------------------------------------------------------

# the log format is what a resume reads back, so its bytes must not drift
CENSUS_N3_LOG_SHA256 = "6d7681a0673eb0f0dd9dd78296ba60ffd933a3137378fd1fdb4c115392defa54"
CENSUS_N4_LOG_SHA256 = "0833cfb0debfb4ac70bcb5c182cb2e63568a9d30d98e051386e9de508b7171b5"
MINE_T1_R0_LOG_SHA256 = "eb5e3be2f44de0318db40a2287246c4a6396e010383b396d044ec5eec73b6527"


def _boundary_cuts(path):
    """Prefixes of a log ending right after its header or after a block line."""
    lines = path.read_text().splitlines(keepends=True)
    ends = [1] + [k + 1 for k, line in enumerate(lines) if "block" in json.loads(line)]
    return ["".join(lines[:end]) for end in ends]


def test_log_bytes_are_pinned(tmp_path):
    census_log = tmp_path / "census.ndjson"
    census(3, log_path=census_log)
    assert hashlib.sha256(census_log.read_bytes()).hexdigest() == CENSUS_N3_LOG_SHA256
    mine_log = tmp_path / "mine.ndjson"
    mine(MiningQuery(("T1",), "R0", n_max=3, limit=4), log_path=mine_log)
    assert hashlib.sha256(mine_log.read_bytes()).hexdigest() == MINE_T1_R0_LOG_SHA256


def test_n4_census_log_bytes_are_pinned(tmp_path):
    """The bounded four-point census the benchmark writes: 27,356 classes."""
    log = tmp_path / "census-n4.ndjson"
    census(4, "perm+swap", max_open_sets=6, log_path=log)
    assert hashlib.sha256(log.read_bytes()).hexdigest() == CENSUS_N4_LOG_SHA256


def test_census_resumes_from_every_block_boundary(tmp_path):
    full = tmp_path / "full.ndjson"
    row = census(3, log_path=full)
    cuts = _boundary_cuts(full)
    assert len(cuts) == 32  # the header and 31 blocks of 24 spaces or fewer
    cut = tmp_path / "cut.ndjson"
    for k, text in enumerate(cuts):
        cut.write_text(text)
        assert census(3, resume_path=cut) == row, k
    # resuming in place appends exactly what the interrupted run never wrote
    cut.write_text(cuts[5])
    assert census(3, log_path=cut, resume_path=cut) == row
    assert cut.read_bytes() == full.read_bytes()


def _decoded_counts(path):
    """The axiom counts of a census log, each record decoded with ``json.loads``."""
    counts = Counter()
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if "key" in record:
            counts.update(name for name, value in record["profile"].items() if value)
    return dict(sorted(counts.items()))


@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_finished_census_log_resumes_to_the_written_row(tmp_path, n, symmetry):
    for bound in (None, *range(8)):
        log = tmp_path / f"census-{bound}.ndjson"
        row = census(n, symmetry, max_open_sets=bound, log_path=log)
        assert census(n, symmetry, max_open_sets=bound, resume_path=log) == row, bound
        assert row.axiom_counts == _decoded_counts(log), bound


def test_a_census_resume_decodes_only_the_header_and_block_lines(tmp_path, monkeypatch):
    log = tmp_path / "census.ndjson"
    row = census(3, log_path=log)
    decoded = []

    def loads(text, real=json.loads):
        decoded.append(text)
        return real(text)

    monkeypatch.setattr(json, "loads", loads)
    assert census(3, resume_path=log) == row
    lines = log.read_text().splitlines(keepends=True)
    assert decoded == [line for line in lines if '"key"' not in line]
    assert len(decoded) == 1 + 31  # the header and 31 block lines


def test_a_bounded_census_resume_refuses_a_pair_outside_the_bound(tmp_path):
    """A record with its true verdicts, but of a pair the bound does not admit."""
    log = tmp_path / "census.ndjson"
    row = census(3, max_open_sets=2, log_path=log)
    lines = log.read_text().splitlines(keepends=True)
    admitted = {i for i, t in enumerate(gts_on(3)) if len(t.opens) - 1 <= 2}
    pair = next(p for p in canonical_pair_indices(3, "perm") if not set(p) <= admitted)
    k = next(k for k in range(len(lines) // 2, len(lines)) if '"key"' in lines[k])
    lines[k] = mining._census_lines(3)(*pair, next(verdict_words(3, [pair])))
    log.write_text("".join(lines))
    with pytest.raises(ValueError, match="not a record of this census"):
        census(3, max_open_sets=2, resume_path=log)
    assert row.labeled_gt_count == len(admitted)


@pytest.mark.parametrize(
    "query",
    [
        MiningQuery(("T1",), "R0", n_max=3, limit=4),  # stopped by the witness limit
        MiningQuery(("R0",), "T0", n_max=3, limit=100),  # complete sweep, 11 witnesses
    ],
)
def test_mine_resumes_from_every_block_boundary(tmp_path, query):
    full = tmp_path / "full.ndjson"
    run = mine(query, log_path=full)
    cuts = _boundary_cuts(full)
    cut = tmp_path / "cut.ndjson"
    for k, text in enumerate(cuts):
        cut.write_text(text)
        resumed = mine(query, resume_path=cut)
        assert [w.as_dict() for w in resumed.witnesses] == [w.as_dict() for w in run.witnesses], k
        assert (resumed.complete, resumed.spaces_checked) == (run.complete, run.spaces_checked), k
        assert resumed.checked_by_n == run.checked_by_n, k
    cut.write_text(cuts[2])
    mine(query, log_path=cut, resume_path=cut)
    assert cut.read_bytes() == full.read_bytes()


def test_in_place_resume_from_a_header_only_log(tmp_path):
    """A crash before the first block finished leaves only the header;
    resuming in place must not write a second one."""
    query = MiningQuery(("R0",), "T0", n_max=3, limit=100)
    for run in (lambda **paths: census(2, **paths), lambda **paths: mine(query, **paths)):
        full = tmp_path / "full.ndjson"
        full.unlink(missing_ok=True)
        run(log_path=full)
        cut = tmp_path / "cut.ndjson"
        cut.write_text(_boundary_cuts(full)[0])
        run(log_path=cut, resume_path=cut)
        assert cut.read_bytes() == full.read_bytes()


def test_workers_are_clamped_before_the_pool_starts(monkeypatch):
    started = []

    class InlineExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    # the pool's class is read from its module when a pool starts
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    query = MiningQuery(("T0",), "T1_2", n_max=2, limit=50)  # 2 + 7 blocks
    serial = mine(query)
    monkeypatch.setattr(mining.os, "cpu_count", lambda: 4)
    assert mine(query, workers=1000).as_dict() == serial.as_dict()
    monkeypatch.setattr(mining.os, "cpu_count", lambda: 64)
    assert mine(query, workers=1000).as_dict() == serial.as_dict()
    assert started == [4, 9]
