"""Command-line surface.

Exit codes: 0 success (claims: statuses match the recorded expectations),
1 input or file error, 2 claims deviate from the recorded expectations,
3 internal decider disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys

from .axioms import AXIOM_NAMES, InternalDisagreementError, axiom_profile
from .claims import (
    eval_predicate,
    explain,
    list_claims,
    predicate_entry,
    run_claims,
    statuses_match_expectations,
)
from .lattice import implication_lattice
from .mining import SPECIAL_QUERIES, MiningQuery, census, mine
from .spacefile import load_space, write_space_file


def _profile_lines(profile) -> list[str]:
    lines = ["axiom   verdict  witness"]
    for name, value in profile.as_dict().items():
        witness = profile.witnesses.get(name, "")
        lines.append(f"{name:<7} {str(value).lower():<8} {witness}".rstrip())
    return lines


def _json_out(data) -> int:
    sys.stdout.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_validate(args) -> int:
    space, added = load_space(args.path, complete=args.complete_unions)
    if args.complete_unions:
        for key in ("mu1", "mu2"):
            for mask in added[key]:
                print(f"added to {key}: {space.ground.label(mask)}", file=sys.stderr)
        sys.stdout.write(write_space_file(space))
    else:
        print("valid")
    return 0


def cmd_classify(args) -> int:
    space, _ = load_space(args.path)
    profile = axiom_profile(space, cross_validate=True)
    if args.format == "json":
        return _json_out({"profile": profile.as_dict(), "witnesses": profile.witnesses})
    print("\n".join(_profile_lines(profile)))
    return 0


def cmd_check(args) -> int:
    space, _ = load_space(args.path)
    try:
        names, _ = predicate_entry(args.predicate)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    values = {name: getattr(args, name) for name in names}
    missing = " ".join(f"--{name}" for name, value in values.items() if value is None)
    if missing:
        print(f"error: predicate {args.predicate!r} needs {missing}", file=sys.stderr)
        return 1
    call_args = {k: v if k == "side" else tuple(s for s in v.split(",") if s) for k, v in values.items()}
    result = eval_predicate(space, args.predicate, call_args)
    if isinstance(result, bool):
        print(str(result).lower())
    else:
        print(",".join(result))
    return 0


def cmd_mine(args) -> int:
    if args.special is not None:
        finder = SPECIAL_QUERIES[args.special]
        witness, checked = finder(args.n)
        if args.format == "json":
            payload = {
                "special": args.special,
                "spaces_checked": checked,
                "witness": None if witness is None else witness.as_dict(),
            }
            return _json_out(payload)
        if witness is None:
            print(f"exhausted: no witness among {checked} canonical spaces up to {args.n} points")
        else:
            print(f"witness after {checked} canonical spaces: {witness.description}")
            print(f"  key: {witness.key.hex()}")
            print(f"  space: {witness.space!r}")
        return 0

    if args.forbid is None:
        print("error: give --forbid (with optional --require) or --special", file=sys.stderr)
        return 1
    antecedents: list[str] = []
    for chunk in args.require or []:
        antecedents.extend(a for a in chunk.split(",") if a)
    query = MiningQuery(
        antecedents=tuple(antecedents),
        consequent=args.forbid,
        n_min=args.n_min,
        n_max=args.n,
        symmetry=args.symmetry,
        limit=args.limit,
    )
    result = mine(query, workers=args.workers, log_path=args.log, resume_path=args.resume)
    if args.format == "json":
        return _json_out(result.as_dict())
    print(f"query: require {', '.join(query.antecedents)}; forbid {query.consequent}")
    print(f"checked {result.spaces_checked} labeled pairs over n in [{query.n_min}, {query.n_max}]")
    if result.exhausted:
        print("exhausted: no witness exists in range")
    for witness in result.witnesses:
        trues = [k for k, v in witness.profile.as_dict().items() if v]
        print(f"witness {witness.key.hex()}: {witness.space!r}")
        print(f"  holds: {', '.join(trues)}")
    return 0


def cmd_census(args) -> int:
    row = census(
        args.n,
        symmetry=args.symmetry,
        max_open_sets=args.max_open_sets,
        log_path=args.log,
        resume_path=args.resume,
    )
    if args.format == "json":
        return _json_out(row.as_dict())
    print(f"n={row.n} symmetry={row.symmetry}" + (f" [{row.constraint}]" if row.constraint else ""))
    print(f"generalized topologies (labeled): {row.labeled_gt_count}")
    print(f"pairs (labeled):                  {row.labeled_pair_count}")
    print(f"pairs (canonical):                {row.canonical_pair_count}")
    for name in AXIOM_NAMES:
        print(f"  canonical spaces with {name:<5}: {row.axiom_counts.get(name, 0)}")
    if row.orbit_check is not None:
        print(f"orbit-stabilizer identity: {'ok' if row.orbit_check else 'FAILED'}")
    return 0 if row.orbit_check in (None, True) else 3


def cmd_claims(args) -> int:
    if args.explain is not None:
        try:
            record = explain(args.explain)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        return _json_out(record.as_dict())
    if args.list:
        return _json_out([record.as_dict() for record in list_claims()])
    if args.fixture is not None:
        from .fixtures import get_fixture

        try:
            get_fixture(args.fixture)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
    reports = run_claims(
        n_scope=args.n,
        fixture_filter=args.fixture,
        n4_samples=args.n4_samples,
    )
    if args.format == "json":
        _json_out([report.as_dict() for report in reports])
    else:
        width = max(len(r.id) for r in reports)
        print(f"{'claim':<{width}}  {'status':<21} checked  witness")
        for report in reports:
            witness = report.witness or ""
            print(f"{report.id:<{width}}  {report.status:<21} {report.spaces_checked:>7}  {witness}".rstrip())
    if args.fixture is not None:
        return 0
    ok, deviations = statuses_match_expectations(reports)
    if not ok:
        for line in deviations:
            print(f"deviation: {line}", file=sys.stderr)
        return 2
    return 0


def cmd_lattice(args) -> int:
    report = implication_lattice(args.n)
    if args.format == "json":
        return _json_out(report.as_dict())
    sys.stdout.write(report.to_dot())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbt",
        description="Finite-model laboratory for generalized bitopological spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a space file")
    p.add_argument("path")
    p.add_argument(
        "--complete-unions",
        action="store_true",
        help="complete missing unions instead of failing, reporting every added set",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="decide all nine axioms for a space file")
    p.add_argument("path")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="evaluate one predicate on a space file")
    p.add_argument("path")
    p.add_argument("predicate", help="e.g. g-closed-wrt, lambda-closed-wrt, pairwise-lambda-closed, T0")
    p.add_argument("--side", type=int, choices=(1, 2))
    p.add_argument("--set", help="comma-separated labels; empty string for ∅")
    p.add_argument("--set2", help="second subset for weakly-separated")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("mine", help="search the enumerated universe for counterexample spaces")
    p.add_argument("--require", action="append", metavar="AXIOMS", help="axiom(s) that must hold")
    p.add_argument("--forbid", metavar="AXIOM", help="axiom that must fail")
    p.add_argument("--special", choices=sorted(SPECIAL_QUERIES), help="set-level query")
    p.add_argument("--n", type=int, default=3, help="largest point count")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--symmetry", choices=("perm", "perm+swap"), default="perm+swap")
    p.add_argument("--limit", type=int, default=5)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--log", help="append-only NDJSON log path")
    p.add_argument("--resume", help="resume from an interrupted log")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("census", help="count topologies, pairs and axiom classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--symmetry", choices=("perm", "perm+swap"), default="perm")
    p.add_argument("--max-open-sets", type=int, help="bound family size for constrained sweeps")
    p.add_argument("--log", help="append-only NDJSON log path")
    p.add_argument("--resume", help="resume from an interrupted log")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("claims", help="verify the claim registry against the engine")
    p.add_argument("--n", type=int, default=3, help="enumeration scope for universal claims")
    p.add_argument("--n4-samples", type=int, default=1000)
    p.add_argument("--fixture", help="run a single fixture's assertions")
    p.add_argument("--list", action="store_true", help="dump the registry")
    p.add_argument("--explain", metavar="ID", help="show one claim record")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_claims)

    p = sub.add_parser("lattice", help="export the verified/refuted implication lattice")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_lattice)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # the project's input errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalDisagreementError as exc:
        print(f"internal decider disagreement: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
