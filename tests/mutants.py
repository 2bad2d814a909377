"""Mutation gate for the kernels: each target of ``TARGETS`` is a section
of one module and the tests that hold it to its oracles.

- the pair kernels of ``gbtlab.axioms``, from the "Pair kernel." comment
  to ``class Axiom``, against ``test_axioms.py`` and ``test_mining.py``;
- the claim kernels of ``gbtlab.claim_kernels``, from ``block_families``
  to the "claim id -> kernel" comment, against ``test_claim_kernels.py``;
- ``mine``'s block scan, ``gbtlab.mining._scan_block``, from its ``def``
  to ``_block_pairs``, against ``test_mining.py``.

A mutant changes one operator site of a section: a ``&``, ``|`` or ``^``,
in an expression or an augmented assignment, is swapped for each of the
other two, or one of its operands is dropped (``x |= v`` loses the
statement or becomes ``x = v``).  A site is addressed by its path of
(field, index) steps from the module's root: nested ``a | b | c``
operators share a line and a column offset.

Each mutant is written into a temporary copy of ``src/`` and ``tests/``,
and the target's tests run against it with ``-x``.  A mutant whose tests
pass survives; one whose tests fail or run past the timeout is killed
(``x |= low`` for ``x ^= low`` makes ``_meet`` loop forever).
The gate fails on a survivor that ``EQUIVALENT`` does not list with a proof
that it decides what the original decides, and on a listed mutant that is
gone or killed.  The working tree is never written.

Run from the repository root:

    python tests/mutants.py

``JOBS`` mutants run at once, each in its own copy; the timeout per mutant
is six times the unmutated run's time.  Each target prints its wall time.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (module, (first line's start, the start of the line after the section), tests)
TARGETS = (
    (Path("src/gbtlab/axioms.py"), ("# Pair kernel.", "class Axiom("), ("tests/test_axioms.py", "tests/test_mining.py")),
    (Path("src/gbtlab/claim_kernels.py"), ("def block_families(", "# claim id -> kernel"),
        ("tests/test_claim_kernels.py",)),
    (Path("src/gbtlab/mining.py"), ("def _scan_block(", "def _block_pairs("), ("tests/test_mining.py",)),
)
OPERATORS = (ast.BitAnd, ast.BitOr, ast.BitXor)
JOBS = 2  # each lane is one pytest process at a time

# Survivors that decide what the original decides: label -> proof.
EQUIVALENT: dict[str, str] = {
    "_incomparable: a & b -> a | b": (
        "a | b is a or b exactly when one of the two sets holds the other, as a & b is, "
        "so the same pairs are incomparable."
    ),
    "_incomparable: a & b -> a ^ b": (
        "For a < b, a ^ b is a or b only when a = 0, so the nested pairs of nonempty sets "
        "join the incomparable ones.  In _not_intersection_closed the meet of a nested pair is "
        "its smaller member, which is in the family.  In thm_union_g the union of a nested pair "
        "is its larger member, so escapes gains nothing, and unproven gains only "
        "closed[b] & ~g[b], which _escapes(every, closed, g) already holds."
    ),
    "thm_union_ws: a | b -> a ^ b": "The pairs of _disjoint are disjoint, so a | b = a ^ b.",
    "_unfixed_wedges: full ^ a -> full | a": (
        "The added points k lie in a, so in b, and entry a * n + k of a sliced_meet_table table is "
        "never written for k in a: it stays every, and equal &= every changes nothing."
    ),
    "_unfixed_wedges: full ^ a -> full": "As for full | a: the added points are a's.",
    "lem7: full ^ a -> full | a": (
        "The added points x lie in a, so b = a | 1 << x is a, and w(a) ⊆ w(a) adds nothing."
    ),
    "lem7: full ^ a -> full": "As for full | a: the added points are a's.",
    "lem7: a | 1 << x -> a ^ 1 << x": "x is a point outside a, so a ^ 1 << x = a | 1 << x.",
}


def _section(source: str, marks) -> tuple[int, int]:
    """The first line of the section and the line after its last."""
    lines = source.splitlines()
    start, end = (next(k for k, line in enumerate(lines, 1) if line.startswith(mark)) for mark in marks)
    return start, end


def _sites(node, path, where):
    """(path, where) of each operator site under ``node``, in source order;
    ``where`` names the innermost enclosing function or class."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in OPERATORS:
        yield path, where
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        where = node.name if where is None else f"{where}.{node.name}"
    for field, value in ast.iter_fields(node):
        children = enumerate(value) if isinstance(value, list) else [(None, value)]
        for k, child in children:
            if isinstance(child, ast.AST):
                yield from _sites(child, (*path, (field, k)), where)


def _follow(tree, path):
    node = tree
    for field, k in path:
        node = getattr(node, field) if k is None else getattr(node, field)[k]
    return node


def _replacements(node):
    """The replacement node of each of the four mutants of one site."""
    swaps = [op() for op in OPERATORS if op is not type(node.op)]
    if isinstance(node, ast.BinOp):
        out = [*(ast.BinOp(node.left, op, node.right) for op in swaps), node.left, node.right]
    else:
        out = [*(ast.AugAssign(node.target, op, node.value) for op in swaps), ast.Pass()]
        out.append(ast.Assign([node.target], node.value))
    return [ast.copy_location(new, node) for new in out]


def mutants(source: str, marks) -> list[tuple[str, str]]:
    """(label, mutated source) of every mutant of the section that ``marks``
    bound; a label reads ``where: original -> mutated``, numbered when one
    would repeat."""
    start, end = _section(source, marks)
    tree = ast.parse(source)
    found = []
    for k, stmt in enumerate(tree.body):
        if start <= stmt.lineno < end:
            found += _sites(stmt, (("body", k),), None)
    out, seen = [], {}
    for path, where in found:
        for m in range(4):
            tree = ast.parse(source)
            *parent_path, (field, k) = path
            parent, node = _follow(tree, parent_path), _follow(tree, path)
            original = ast.unparse(node)
            replacement = _replacements(node)[m]
            label = f"{where}: {original} -> {ast.unparse(replacement)}"
            seen[label] = seen.get(label, 0) + 1
            if seen[label] > 1:
                label += f" #{seen[label]}"
            if k is None:
                setattr(parent, field, replacement)
            else:
                getattr(parent, field)[k] = replacement
            out.append((label, ast.unparse(ast.fix_missing_locations(tree))))
    return out


def _copy(into: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=shutil.ignore_patterns("__pycache__"))
    return into


def _run(copy: Path, target: Path, tests, source: str, timeout: float | None) -> tuple[str, float]:
    """Write ``source`` as the copy's target and run the tests: ``killed``,
    ``timed out`` or ``survived``, and the seconds it took."""
    (copy / target).write_text(source)
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    process = subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        outcome = "survived" if process.wait(timeout) == 0 else "killed"
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        outcome = "timed out"
    return outcome, time.perf_counter() - start


def _gate(scratch: Path, target: Path, marks, tests) -> list[tuple[str, str]] | None:
    """(label, outcome) of every mutant of the target's section, run in
    fresh copies under ``scratch``; None if the unmutated tests fail."""
    start = time.perf_counter()
    source = (ROOT / target).read_text()
    found = mutants(source, marks)
    copies = [_copy(scratch / str(k)) for k in range(JOBS)]
    probe = subprocess.run([sys.executable, "-c", f"import gbtlab.{target.stem} as m; print(m.__file__)"],
        env={**os.environ, "PYTHONPATH": str(copies[0] / "src")}, capture_output=True, text=True)
    if Path(probe.stdout.strip()) != copies[0] / target:
        print(f"the copy's gbtlab is not the one imported: {probe.stdout or probe.stderr}", file=sys.stderr)
        return None
    outcome, seconds = _run(copies[0], target, tests, ast.unparse(ast.parse(source)), None)
    timeout = 6 * seconds
    print(f"{target}: unmutated: {outcome} in {seconds:.1f} s; timeout per mutant {timeout:.0f} s")
    if outcome != "survived":
        print(f"{target}: the tests do not pass on the unmutated section", file=sys.stderr)
        return None

    def lane(k):
        """Every JOBS-th mutant from the k-th on, in copy k."""
        return [_run(copies[k], target, tests, found[m][1], timeout) for m in range(k, len(found), JOBS)]

    results = [None] * len(found)
    with ThreadPoolExecutor(JOBS) as pool:
        for k, outcomes in enumerate(pool.map(lane, range(JOBS))):
            results[k::JOBS] = outcomes
    for (label, _), (outcome, seconds) in zip(found, results):
        print(f"{outcome:9} {seconds:5.1f} s  {label}")
    survived = sum(outcome == "survived" for outcome, _ in results)
    print(f"{target}: {len(found)} mutants at {len(found) // 4} sites: {len(found) - survived} killed "
        f"({sum(outcome == 'timed out' for outcome, _ in results)} by the timeout), {survived} survived")
    print(f"{target}: {time.perf_counter() - start:.0f} s wall", file=sys.stderr)
    return [(label, outcome) for (label, _), (outcome, _) in zip(found, results)]


def main() -> int:
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="gbtlab-mutants-") as scratch:
        for k, (target, marks, tests) in enumerate(TARGETS):
            found = _gate(Path(scratch) / str(k), target, marks, tests)
            if found is None:
                return 2
            outcomes += found
    survivors = [label for label, outcome in outcomes if outcome == "survived"]
    unproved = [label for label in survivors if label not in EQUIVALENT]
    stale = [label for label in EQUIVALENT if label not in survivors]
    print(f"{len(survivors)} survivors, {len(survivors) - len(unproved)} of them listed as equivalent")
    for label in unproved:
        print(f"survivor without a proof of equivalence: {label}", file=sys.stderr)
    for label in stale:
        print(f"listed as equivalent but killed or gone: {label}", file=sys.stderr)
    return 1 if unproved or stale else 0


if __name__ == "__main__":
    sys.exit(main())
