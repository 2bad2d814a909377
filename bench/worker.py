"""One step of a benchmark round, run in a fresh interpreter.

Usage: python3 bench/worker.py STEP PARAMS_JSON

The step imports gbtlab from ``src`` of the current directory, does its
work through the package's public entry points, and prints one JSON object
as its last line of output: timings, the outputs run.py checks, and the
process's own peak resident memory.  With ``"trace": true`` in the params
the calls into gbtlab are wrapped in spans (see tracing.py), the spans are
written to ``params["trace_path"]`` and a per-module summary is added.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time

START = time.perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import gbtlab  # noqa: E402
from gbtlab import claims, enumeration, mining, spacefile  # noqa: E402
from gbtlab.axioms import AXIOM_NAMES  # noqa: E402

IMPORTED = time.perf_counter()

from tracing import Tracer, instrument, listed  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def build_topologies(sizes) -> float:
    start = time.perf_counter()
    for n in sizes:
        enumeration.gts_on(n)
    return time.perf_counter() - start


def step_setup(p: dict) -> dict:
    """The workload's set-up alone: import, topologies, and for the census
    the permutation index and the canonical pair list."""
    build_topologies(p["gts_sizes"])
    if p.get("pairs_n"):
        list(enumeration.canonical_pair_indices(p["pairs_n"], "perm+swap"))
    return {"setup_s": time.perf_counter() - START}


def step_mine(p: dict) -> dict:
    build_topologies(range(1, p["n_max"] + 1))
    setup_end = time.perf_counter()
    query = mining.MiningQuery(("T1_4",), "T3_8", n_min=1, n_max=p["n_max"], symmetry="perm+swap")
    result = mining.mine(query, workers=1).as_dict()
    end = time.perf_counter()
    return {
        "setup_s": setup_end - START,
        "sweep_s": end - setup_end,
        "spaces": result["spaces_checked"],
        "result": {k: result[k] for k in ("complete", "exhausted", "spaces_checked", "checked_by_n")},
        "witnesses": len(result["witnesses"]),
    }


def step_census_write(p: dict) -> dict:
    """Census with a log.  Set-up ends when the canonical pair list is built,
    which is marked by timing the census's own call for it."""
    marks = {}
    pair_indices = listed(mining.canonical_pair_indices)

    def marked(*args, **kwargs):
        pairs = pair_indices(*args, **kwargs)
        marks["setup_end"] = time.perf_counter()
        return pairs

    mining.canonical_pair_indices = marked
    row = mining.census(p["n"], p["symmetry"], max_open_sets=p["bound"], log_path=p["log"])
    end = time.perf_counter()
    setup_end = marks["setup_end"]
    return {
        "setup_s": setup_end - START,
        "sweep_s": end - setup_end,
        "spaces": row.canonical_pair_count,
        "row": row.as_dict(),
    }


def step_census_resume(p: dict) -> dict:
    start = time.perf_counter()
    row = mining.census(p["n"], p["symmetry"], max_open_sets=p["bound"], resume_path=p["log"])
    return {"resume_s": time.perf_counter() - start, "row": row.as_dict()}


def _cut_logs(full: str, out_dir: str, block_index: int) -> dict[str, str]:
    """Copies of a census log as a crash would leave them.

    ``boundary`` ends at the done-record of block ``block_index``;
    ``mid-block`` adds the first half of the next block's records;
    ``torn-line`` adds the first half of the next record's line.
    """
    with open(full, encoding="utf-8") as handle:
        lines = handle.readlines()
    blocks = [k for k, line in enumerate(lines) if "block" in json.loads(line)]
    cut = blocks[block_index] + 1
    following = lines[cut : blocks[block_index + 1]]
    head = "".join(lines[:cut])
    versions = {
        "boundary": head,
        "mid-block": head + "".join(following[: len(following) // 2]),
        "torn-line": head + following[0][: len(following[0]) // 2],
    }
    paths = {}
    for name, text in versions.items():
        path = os.path.join(out_dir, f"census-n3-{name}.ndjson")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths[name] = path
    return paths


def step_census_n3(p: dict) -> dict:
    """Write a full n = 3 census log, then resume from three cut copies."""
    full = os.path.join(p["dir"], "census-n3-full.ndjson")
    if os.path.exists(full):
        os.remove(full)
    row = mining.census(3, "perm", log_path=full)
    resumes = {}
    for name, path in _cut_logs(full, p["dir"], p["block_index"]).items():
        try:
            resumed = mining.census(3, "perm", resume_path=path)
        except Exception as exc:  # a failing resume is a measured outcome
            resumes[name] = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            resumes[name] = {"row": resumed.as_dict()}
    return {"row": row.as_dict(), "resumes": resumes}


def step_claims(p: dict) -> dict:
    build_topologies(range(1, 5))
    setup_end = time.perf_counter()
    reports = claims.run_claims(n_scope=p["n_scope"], n4_samples=p["samples"], seed=p["seed"])
    end = time.perf_counter()
    scopes = {record.id: record.scope for record in claims.list_claims()}
    return {
        "setup_s": setup_end - START,
        "sweep_s": end - setup_end,
        "spaces": max(r.spaces_checked for r in reports),
        "reports": [dict(r.as_dict(), scope=scopes[r.id]) for r in reports],
    }


def _mean_us(fn, items) -> float:
    start = time.perf_counter_ns()
    for item in items:
        fn(item)
    return (time.perf_counter_ns() - start) / 1e3 / len(items)


def step_probe(p: dict) -> dict:
    """Per-call costs of each layer on a seeded sample of labeled pairs."""
    from gbtlab.axioms import axiom_profile, evaluate_axiom
    from gbtlab.gbt import GbtSpace
    from gbtlab.gt import GeneralizedTopology

    n, rng = p["n"], random.Random(p["seed"])
    out = {"gbtlab.import_s": IMPORTED - START}
    out["enumeration.gts_on_s"] = build_topologies(range(1, n + 1))
    start = time.perf_counter()
    pairs = list(enumeration.canonical_pair_indices(n, "perm+swap"))
    out["enumeration.canonical_pair_indices_s"] = time.perf_counter() - start
    out["enumeration.canonical_pairs"] = len(pairs)
    start = time.perf_counter()
    claims.run_claims(n_scope=0, n4_samples=0)
    out["claims.fixtures_s"] = time.perf_counter() - start

    gts = enumeration.gts_on(n)
    g = gts[0].ground
    spaces = [
        GbtSpace(g, gts[rng.randrange(len(gts))], gts[rng.randrange(len(gts))])
        for _ in range(p["samples"])
    ]
    small = spaces[: p["samples_slow"]]

    def tables(t):
        return t.closure_table, t.interior_table, t.wedge_table, t.vee_table

    out["gt.tables_us"] = _mean_us(
        lambda t: tables(GeneralizedTopology(t.ground, t.opens)), [s.mu1 for s in spaces]
    )
    for s in spaces:  # the sweeps share each topology's tables; time deciders on warm ones
        tables(s.mu1), tables(s.mu2)
    out["enumeration.canonical_key_us"] = _mean_us(enumeration.canonical_key, spaces)
    out["spacefile.space_to_data_us"] = _mean_us(spacefile.space_to_data, spaces)
    for name in AXIOM_NAMES:
        out[f"axioms.evaluate_{name}_us"] = _mean_us(
            lambda s, name=name: evaluate_axiom(name, s.mu1, s.mu2), spaces
        )
    out["axioms.axiom_profile_us"] = _mean_us(axiom_profile, spaces)
    out["axioms.axiom_profile_xval_us"] = _mean_us(
        lambda s: axiom_profile(s, cross_validate=True), small
    )

    def context(s):
        ctx = claims.SpaceContext(s)
        for attr in (
            "g_closed", "g_open", "lambda_closed", "pairwise_lambda", "wedge_sets",
            "vee_sets", "profile", "all_lambda", "fraction_definitional", "t_half_definitional",
        ):
            getattr(ctx, attr)
        return ctx

    out["claims.space_context_us"] = _mean_us(context, small)
    contexts = [context(s) for s in small]
    for claim_id, checker in claims._UNIVERSAL_CHECKERS.items():
        out[f"claims.check.{claim_id}_us"] = _mean_us(checker, contexts)
    return out


STEPS = {
    "setup": step_setup,
    "mine": step_mine,
    "census-write": step_census_write,
    "census-resume": step_census_resume,
    "census-n3": step_census_n3,
    "claims": step_claims,
    "probe": step_probe,
}


def main() -> int:
    step, params = sys.argv[1], json.loads(sys.argv[2])
    tracer = None
    if params.get("trace"):
        tracer = Tracer()
        instrument(tracer)
    out = STEPS[step](params)
    out["import_s"] = IMPORTED - START
    out["peak_rss_mb"] = peak_rss_mb()
    out["gbtlab_path"] = os.path.dirname(gbtlab.__file__)
    if tracer is not None:
        tracer.dump(params["trace_path"])
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
