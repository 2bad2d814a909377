"""Spans around calls into gbtlab's public functions, recorded from outside.

The program is not edited: `instrument` replaces attributes of its modules
at run time with wrappers that time each call.  A span has an id, the id of
the span open when it started (0 at top level), a name and start and end
times in nanoseconds.  Spans stay in memory until `dump` writes them out.
Per name the tracer keeps every call's totals but only the first `keep`
spans, so a sweep of millions of decider calls stays small on disk.

A span's self time is its duration minus the durations of the spans opened
inside it; a module's self time is the sum over spans named after it.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self, keep: int = 200):
        self.keep = keep
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self._stack: list[list[int]] = []  # open spans: [id, ns covered by children]
        self._ids = 0

    def wrap(self, fn, name: str):
        totals = self.totals.setdefault(name, [0, 0, 0])
        stack, spans, keep, clock = self._stack, self.spans, self.keep, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._ids += 1
            frame = [self._ids, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if totals[0] <= keep:
                    spans.append((frame[0], parent, name, start, end))

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def module_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, _, self_ns) in self.totals.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + self_ns / 1e9
        return out

    def summary(self) -> dict:
        return {
            "modules": self.module_self_s(),
            "calls": {name: t[0] for name, t in self.totals.items()},
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                    "spans": self.spans,
                    "totals": {
                        name: {"calls": c, "total_ns": t, "self_ns": s}
                        for name, (c, t, s) in sorted(self.totals.items())
                    },
                },
                handle,
            )


def listed(fn):
    """Run a generator function to its end at call time.

    A span around a generator call would close before any item is made, so
    callers that consume the whole stream anyway get the finished list.
    """

    @functools.wraps(fn)
    def eager(*args, **kwargs):
        return iter(list(fn(*args, **kwargs)))

    return eager


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions each gbtlab module calls in the others."""
    from gbtlab import claims, enumeration, gbt, gt, mining

    pair_indices = listed(enumeration.canonical_pair_indices)
    for owner in (mining, claims):
        setattr(owner, "canonical_pair_indices", pair_indices)
        tracer.patch(owner, "canonical_pair_indices", "enumeration.canonical_pair_indices")
        tracer.patch(owner, "gts_on", "enumeration.gts_on")
        tracer.patch(owner, "axiom_profile", "axioms.axiom_profile")
    tracer.patch(enumeration, "gts_on", "enumeration.gts_on")
    for attr in ("evaluate_axiom", "canonical_key", "pair_orbit_size"):
        module = "axioms" if attr == "evaluate_axiom" else "enumeration"
        tracer.patch(mining, attr, f"{module}.{attr}")
    tracer.patch(mining, "space_to_data", "spacefile.space_to_data")
    tracer.patch(mining, "mine", "mining.mine")
    tracer.patch(mining, "census", "mining.census")
    tracer.patch(claims, "run_claims", "claims.run_claims")
    tracer.patch(claims, "eval_fixture", "claims.eval_fixture")
    for attr in ("find_g_union_violation", "find_g_intersection_violation"):
        tracer.patch(claims, attr, f"mining.{attr}")
    for attr in (
        "decide_all_lambda",
        "decide_t0",
        "decide_t_half",
        "t0_by_one_point_sets",
        "t0_by_singletons",
        "t_fraction_by_definition",
        "t_half_by_definition",
    ):
        tracer.patch(claims, attr, f"axioms.{attr}")
    for attr in ("is_gt_T0", "is_gt_T1", "validate_gt"):
        tracer.patch(claims, attr, f"gt.{attr}")
    for attr in ("lambda_open_family_wrt", "pairwise_lambda_open_family"):
        tracer.patch(gbt, attr, f"gbt.{attr}")
    for table in (claims._UNIVERSAL_CHECKERS, claims._ONCE_CHECKERS):
        for claim_id, checker in list(table.items()):
            table[claim_id] = tracer.wrap(checker, f"claims.check.{claim_id}")
    for attr in ("closure_table", "interior_table", "wedge_table", "vee_table"):
        prop = gt.GeneralizedTopology.__dict__[attr]
        wrapped = functools.cached_property(tracer.wrap(prop.func, f"gt.{attr}"))
        wrapped.__set_name__(gt.GeneralizedTopology, attr)
        setattr(gt.GeneralizedTopology, attr, wrapped)
