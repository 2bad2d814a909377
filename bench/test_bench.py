"""Tests of the benchmark: its reference computations at n ≤ 3, and every
workload's code path in quick mode."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_naive_family_counts():
    assert [len(reference.naive_families(n)) for n in (1, 2, 3)] == [2, 7, 61]


def test_admitted_bounds_the_number_of_opens():
    families = reference.naive_families(3)
    assert len(reference.admitted(families, None)) == 61
    assert [len(f) - 1 for f in reference.admitted(families, 1)] == [0] + [1] * 7


@pytest.mark.parametrize("swap, counts", [(True, [3, 18, 390]), (False, [4, 29, 738])])
def test_burnside_matches_brute_force_orbits(swap, counts):
    for n, want in zip((1, 2, 3), counts):
        families = reference.naive_families(n)
        assert reference.burnside_pair_orbits(n, families, swap) == want
        assert len(reference.pair_orbit_representatives(n, families, swap)) == want


def test_decider_on_worked_examples():
    split = reference.LabelSpace("abc", [["a"]], [["b"]])
    assert split.t0() and not split.t1()
    discrete = [["a"], ["b"], ["a", "b"]]
    profile = reference.LabelSpace("ab", discrete, discrete).profile()
    assert all(profile.values())
    indiscrete = reference.LabelSpace("ab", [], []).profile()
    assert not indiscrete["T0"] and not indiscrete["T1_4"]
    assert indiscrete["R0"] and indiscrete["SYM"] and indiscrete["LSYM"]


def test_decider_chain_and_census_counts_at_n3():
    reps = reference.pair_orbit_representatives(3, reference.naive_families(3), swap=False)
    for f1, f2 in reps:
        p = reference.LabelSpace("abc", f1, f2).profile()
        assert p["T1_4"] == p["T3_8"] == p["T5_8"]
        assert not p["T1_2"] or p["T1_4"]
        assert not p["T1_4"] or p["T0"]
        assert not p["T1"] or p["T0"]
    assert reference.axiom_counts(3, reps)["T0"] == 689


def test_decider_agrees_with_engine_at_n3():
    sys.path.insert(0, str(ROOT / "src"))
    from gbtlab import axiom_profile, enumerate_gbt_pairs
    from gbtlab.spacefile import space_to_data

    for space in enumerate_gbt_pairs(3, "perm+swap"):
        want = reference.LabelSpace.from_data(space_to_data(space)).profile()
        assert axiom_profile(space).as_dict() == want, space


def _names(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec[kind]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "workload, attempted, failed",
    [("mine-n4", 1, 0), ("census-n4-log", 6, 2), ("claims-n4-sample", 1, 0)],
)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_mode(workload, attempted, failed, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    # the two failures are the n = 3 resumes from a log cut inside a block
    # and from a log with a torn last line
    assert (result["attempted"], result["failed"]) == (attempted, failed), proc.stderr
    metrics = result["metrics"]
    assert list(metrics) == _names("per_layer" if trace == "1" else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    if trace == "0":
        assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "mine-n4", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
