"""Benchmark for gbtlab's n ≤ 4 sweeps: mining, the logged census, claims.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Each round of a workload runs its steps (worker.py) in fresh interpreters
with one worker each, so cold caches and peak memory belong to the round.
Rounds repeat until ``--seconds`` have passed, and at least two run;
every figure is a median over rounds.  Set-up time is the median of
several cold set-up processes.  Outputs are checked against reference.py, which does not import gbtlab.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With ``--trace 1`` the
rounds run with spans around calls into gbtlab, and the metrics are the
per-layer ones: a probe process times each layer on seeded samples.

``--quick`` runs every workload's code path and checks at n ≤ 3 in a few
seconds; the benchmark's own tests use it.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
STEP_TIMEOUT_S = 170
MODULES = ("mining", "enumeration", "axioms", "gt")  # traced on every workload


N3_CUT_BLOCK = 15  # the n = 3 census log is cut after this block


@dataclass(frozen=True)
class Plan:
    n: int  # mine over n = 1..n; census and layer probe at n
    census_bound: int | None  # the census's --max-open-sets
    claims_samples: int  # labeled four-point spaces after the n ≤ 3 sweep
    census_checked: int  # logged spaces re-decided by the reference decider
    setup_runs: int
    probe_samples: int
    probe_samples_slow: int
    min_rounds: int = 2
    max_rounds: int | None = None


FULL = Plan(
    n=4,
    census_bound=6,
    claims_samples=4000,
    census_checked=300,
    setup_runs=5,
    probe_samples=1000,
    probe_samples_slow=300,
)
QUICK = Plan(
    n=3,
    census_bound=None,
    claims_samples=25,
    census_checked=40,
    setup_runs=2,
    probe_samples=100,
    probe_samples_slow=20,
    min_rounds=1,
    max_rounds=1,
)


class StepError(RuntimeError):
    """A worker process did not finish its step."""


class Run:
    """One invocation: the checkout, the plan, the seed and the output directory."""

    def __init__(self, root: Path, workload: str, plan: Plan, seed: int, trace: bool):
        self.root, self.plan, self.seed, self.trace = root, plan, seed, trace
        self.out = HERE / "out" / workload
        shutil.rmtree(self.out, ignore_errors=True)
        (self.out / "trace").mkdir(parents=True)
        self.rounds_started = 0

    def step(self, name: str, params: dict, traced: bool = False) -> dict:
        if traced:
            params = dict(
                params,
                trace=True,
                trace_path=str(self.out / "trace" / f"{name}-r{self.rounds_started}.json"),
            )
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), name, json.dumps(params)],
            cwd=self.root,
            capture_output=True,
            text=True,
            timeout=STEP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise StepError(f"step {name} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(out["gbtlab_path"]).resolve() != (self.root / "src" / "gbtlab").resolve():
            raise StepError(f"step {name} imported gbtlab from {out['gbtlab_path']}")
        return out

    def round(self, steps) -> dict:
        """Run ``steps`` [(name, params)] in order as one timed round."""
        self.rounds_started += 1
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        outs = [self.step(name, params, self.trace) for name, params in steps]
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": max(o["peak_rss_mb"] for o in outs),
            "steps": dict(zip((name for name, _ in steps), outs)),
        }


# ---------------------------------------------------------------------------
# workloads: each gives its set-up, its round, the step whose sweep is
# counted in spaces_per_s, and its checks.  A check returns
# (problems, operations), where an operation is (name, failed, detail).


class Workload:
    def after_round(self, run: Run, record: dict) -> None:
        """Take what the checks need from the round's files, untimed."""


class Mine(Workload):
    name = "mine-n4"
    sweep_step = "mine"

    def setup_params(self, plan: Plan) -> dict:
        return {"gts_sizes": list(range(1, plan.n + 1))}

    def steps(self, run: Run):
        return [("mine", {"n_max": run.plan.n})]

    def check(self, run: Run, rounds) -> tuple[list[str], list]:
        counts = {
            str(n): m * (m + 1) // 2
            for n in range(1, run.plan.n + 1)
            for m in [len(reference.naive_families(n))]
        }
        problems, ops = [], []
        for r in rounds:
            out = r["steps"]["mine"]
            result = out["result"]
            if not (result["complete"] and result["exhausted"] and out["witnesses"] == 0):
                problems.append(f"mine: not an exhausted sweep: {result}")
            if result["checked_by_n"] != counts:
                problems.append(f"mine: checked_by_n {result['checked_by_n']} != {counts}")
            if result["spaces_checked"] != sum(counts.values()):
                problems.append(f"mine: spaces_checked {result['spaces_checked']}")
            ops.append(("mine", False, ""))
        return problems, ops


class Census(Workload):
    name = "census-n4-log"
    sweep_step = "census-write"

    def setup_params(self, plan: Plan) -> dict:
        return {"gts_sizes": [plan.n], "pairs_n": plan.n}

    def log_path(self, run: Run) -> Path:
        return run.out / "census.ndjson"

    def steps(self, run: Run):
        log = self.log_path(run)
        log.unlink(missing_ok=True)  # the census appends to an existing log
        params = {
            "n": run.plan.n,
            "symmetry": "perm+swap",
            "bound": run.plan.census_bound,
            "log": str(log),
        }
        return [
            ("census-write", params),
            ("census-resume", params),
            ("census-n3", {"dir": str(run.out), "block_index": N3_CUT_BLOCK}),
        ]

    def after_round(self, run: Run, record: dict) -> None:
        digest = hashlib.sha256(self.log_path(run).read_bytes()).hexdigest()
        record["steps"]["census-write"]["log_sha256"] = digest

    def check(self, run: Run, rounds) -> tuple[list[str], list]:
        plan = run.plan
        n = plan.n
        families = reference.admitted(reference.naive_families(n), plan.census_bound)
        orbits = reference.burnside_pair_orbits(n, families, swap=True)
        n3_reps = reference.pair_orbit_representatives(3, reference.naive_families(3), swap=False)
        n3_counts = reference.axiom_counts(3, n3_reps)
        problems, ops = [], []
        digests = set()
        for r in rounds:
            write = r["steps"]["census-write"]
            row = write["row"]
            want = {
                "n": n,
                "labeled_gt_count": len(families),
                "labeled_pair_count": len(families) ** 2,
                "canonical_pair_count": orbits,
            }
            got = {k: row[k] for k in want}
            if got != want:
                problems.append(f"census: row {got} != reference {want}")
            problems += chain_problems("census", row["axiom_counts"])
            digests.add(write["log_sha256"])
            ops.append(("census n=4 write", False, ""))
            resumed = r["steps"]["census-resume"]["row"]
            ops.append(("census n=4 resume", resumed != row, f"resumed row {resumed}"))

            n3 = r["steps"]["census-n3"]
            n3_row = n3["row"]
            if n3_row["canonical_pair_count"] != len(n3_reps) or n3_row["orbit_check"] is not True:
                problems.append(f"census n=3: {n3_row['canonical_pair_count']} classes")
            if n3_row["axiom_counts"] != n3_counts:
                problems.append(f"census n=3: counts {n3_row['axiom_counts']} != {n3_counts}")
            ops.append(("census n=3 write", False, ""))
            for cut, outcome in n3["resumes"].items():
                failed = outcome.get("row") != n3_row
                detail = outcome.get("error") or f"T0 {outcome['row']['axiom_counts'].get('T0')}"
                ops.append((f"census n=3 resume from {cut} log", failed, detail))
        if len(digests) != 1:
            problems.append("census: logs of identical rounds differ")
        problems += self.check_log(run, rounds[-1]["steps"]["census-write"]["row"], orbits)
        return problems, ops

    def check_log(self, run: Run, row: dict, orbits: int) -> list[str]:
        """The last round's log: one record per class, counts that add up to
        the row, and profiles that agree with the reference decider."""
        records = []
        with open(self.log_path(run), encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "key" in record:
                    records.append(record)
        problems = []
        keys = {record["key"] for record in records}
        if len(keys) != orbits or len(records) != orbits:
            problems.append(f"census log: {len(keys)} keys in {len(records)} records, want {orbits}")
        totals: dict[str, int] = {}
        for record in records:
            for name, value in record["profile"].items():
                totals[name] = totals.get(name, 0) + value
        if {k: v for k, v in totals.items() if v} != row["axiom_counts"]:
            problems.append("census log: profile totals differ from the row")
        rng = random.Random(run.seed)
        for record in rng.sample(records, min(run.plan.census_checked, len(records))):
            want = reference.LabelSpace.from_data(record["space"]).profile()
            if record["profile"] != want:
                problems.append(f"census log: key {record['key']} profile {record['profile']} != {want}")
        return problems


class Claims(Workload):
    name = "claims-n4-sample"
    sweep_step = "claims"

    def setup_params(self, plan: Plan) -> dict:
        return {"gts_sizes": [1, 2, 3, 4]}

    def steps(self, run: Run):
        params = {"n_scope": 3, "samples": run.plan.claims_samples, "seed": run.seed}
        return [("claims", params)]

    def check(self, run: Run, rounds) -> tuple[list[str], list]:
        expected_path = run.root / "src" / "gbtlab" / "data" / "claim_expectations.json"
        expected = json.loads(expected_path.read_text(encoding="utf-8"))
        swept = sum(
            reference.burnside_pair_orbits(n, reference.naive_families(n), swap=True)
            for n in (1, 2, 3)
        )
        per_claim = swept + run.plan.claims_samples
        problems, ops = [], []
        for r in rounds:
            reports = r["steps"]["claims"]["reports"]
            statuses = {rep["id"]: rep["status"] for rep in reports}
            if statuses != expected:
                wrong = sorted(k for k in expected.keys() | statuses.keys() if statuses.get(k) != expected.get(k))
                problems.append(f"claims: statuses differ from the expectations at {wrong}")
            universal = [rep for rep in reports if rep["scope"] == "enumeration"]
            if len(universal) != 42:
                problems.append(f"claims: {len(universal)} universal claims, want 42")
            for rep in universal:
                if rep["status"] == "verified" and rep["spaces_checked"] != per_claim:
                    problems.append(f"claims: {rep['id']} checked {rep['spaces_checked']}, want {per_claim}")
            if reports != rounds[0]["steps"]["claims"]["reports"]:
                problems.append("claims: identical rounds reported differently")
            ops.append(("run_claims", False, ""))
        return problems, ops


WORKLOADS = {w.name: w for w in (Mine(), Census(), Claims())}


def chain_problems(label: str, counts: dict) -> list[str]:
    c = {name: counts.get(name, 0) for name in ("T0", "T1_4", "T3_8", "T5_8", "T1_2")}
    if not (c["T1_4"] == c["T3_8"] == c["T5_8"] and c["T1_2"] <= c["T1_4"] <= c["T0"]):
        return [f"{label}: axiom counts break T1_2 <= T1_4 = T3_8 = T5_8 <= T0: {c}"]
    return []


# ---------------------------------------------------------------------------


def end_to_end(rounds, setups, sweep_step: str) -> dict:
    median = statistics.median
    return {
        "wall_s": (median(r["wall_s"] for r in rounds), "s"),
        "setup_s": (median(s["setup_s"] for s in setups), "s"),
        "spaces_per_s": (
            median(r["steps"][sweep_step]["spaces"] / r["steps"][sweep_step]["sweep_s"] for r in rounds),
            "1/s",
        ),
        "cpu_s": (median(r["cpu_s"] for r in rounds), "s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def unit_of(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(run: Run, rounds) -> dict:
    """Module self times and call counts from the traced rounds; per-call
    costs from an untraced probe; resume costs from an untraced census."""
    metrics: dict[str, float] = {}
    modules: dict[str, list[float]] = {}
    for r in rounds:
        totals: dict[str, float] = {}
        for out in r["steps"].values():
            for module, seconds in out["trace"]["modules"].items():
                totals[module] = totals.get(module, 0.0) + seconds
        for module, seconds in totals.items():
            modules.setdefault(module, []).append(seconds)
    self_s = {module: statistics.median(values) for module, values in sorted(modules.items())}
    print("module self time (s, median over traced rounds): " + json.dumps(self_s))
    for module in MODULES:
        metrics[f"{module}.self_s"] = self_s.get(module, 0.0)
    first = rounds[0]["steps"]
    metrics["axioms.evaluate_calls"] = sum(
        out["trace"]["calls"].get("axioms.evaluate_axiom", 0) for out in first.values()
    )
    metrics["mining.pairs_checked"] = first["mine"]["spaces"] if "mine" in first else 0

    plan = run.plan
    probe = run.step(
        "probe",
        {
            "n": plan.n,
            "seed": run.seed,
            "samples": plan.probe_samples,
            "samples_slow": plan.probe_samples_slow,
        },
    )
    metrics.update((name, value) for name, value in probe.items() if "." in name)

    log = run.out / "census-probe.ndjson"
    log.unlink(missing_ok=True)
    params = {"n": plan.n, "symmetry": "perm+swap", "bound": plan.census_bound, "log": str(log)}
    run.step("census-write", params)
    resume = run.step("census-resume", params)
    metrics["mining.census_log_mb"] = log.stat().st_size / 1e6
    metrics["mining.resume_s"] = resume["resume_s"]
    metrics["mining.resume_peak_rss_mb"] = resume["peak_rss_mb"]
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="n <= 3, one round, for the tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gbtlab" / "__init__.py").is_file():
        print(f"error: no gbtlab source under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    plan = QUICK if args.quick else FULL
    run = Run(root, workload.name, plan, args.seed, bool(args.trace))
    try:
        setups = [] if run.trace else [
            run.step("setup", workload.setup_params(plan)) for _ in range(plan.setup_runs)
        ]
        rounds = []
        start = time.perf_counter()
        while len(rounds) < plan.min_rounds or (
            time.perf_counter() - start < args.seconds
            and (plan.max_rounds is None or len(rounds) < plan.max_rounds)
        ):
            rounds.append(run.round(workload.steps(run)))
            workload.after_round(run, rounds[-1])
            print(f"round {len(rounds)}: wall {rounds[-1]['wall_s']:.3f} s")
        problems, ops = workload.check(run, rounds)
        metrics = per_layer(run, rounds) if run.trace else end_to_end(rounds, setups, workload.sweep_step)
    except (StepError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed = [op for op in ops if op[1]]
    for name, _, detail in failed:
        print(f"operation failed: {name}: {detail}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
