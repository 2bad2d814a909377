"""Mutation gate for the pair-kernel section of ``gbtlab.axioms``.

A mutant changes one operator site of the section, from the "Pair kernel."
comment to ``class Axiom``: a ``&``, ``|`` or ``^``, in an expression or an
augmented assignment, is swapped for each of the other two, or one of its
operands is dropped (``x |= v`` loses the statement or becomes ``x = v``).
A site is addressed by its path of (field, index) steps from the module's
root: nested ``a | b | c`` operators share a line and a column offset.

Each mutant is written into a temporary copy of ``src/`` and ``tests/``,
and ``test_axioms.py`` and ``test_mining.py`` run against it with ``-x``.
A mutant whose tests pass survives; one whose tests fail or run past the
timeout is killed (``x |= low`` for ``x ^= low`` makes ``_meet`` loop forever).
The gate fails on a survivor that ``EQUIVALENT`` does not list with a proof
that it decides what the original decides, and on a listed mutant that is
gone or killed.  The working tree is never written.

Run from the repository root:

    python tests/mutants.py

``JOBS`` mutants run at once, each in its own copy; the timeout per mutant
is six times the unmutated run's time.
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
TARGET = Path("src/gbtlab/axioms.py")
TESTS = ("tests/test_axioms.py", "tests/test_mining.py")
SECTION = ("# Pair kernel.", "class Axiom(")
OPERATORS = (ast.BitAnd, ast.BitOr, ast.BitXor)
JOBS = 2  # each lane is one pytest process at a time

# Survivors that decide what the original decides: label -> proof.
EQUIVALENT: dict[str, str] = {}


def _section(source: str) -> tuple[int, int]:
    """The first line of the section and the line after its last."""
    lines = source.splitlines()
    start, end = (next(k for k, line in enumerate(lines, 1) if line.startswith(mark)) for mark in SECTION)
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


def mutants(source: str) -> list[tuple[str, str]]:
    """(label, mutated source) of every mutant of the section; a label reads
    ``where: original -> mutated``, numbered when one would repeat."""
    start, end = _section(source)
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


def _run(copy: Path, source: str, timeout: float | None) -> tuple[str, float]:
    """Write ``source`` as the copy's target and run the tests: ``killed``,
    ``timed out`` or ``survived``, and the seconds it took."""
    (copy / TARGET).write_text(source)
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS]
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


def main() -> int:
    start = time.perf_counter()
    source = (ROOT / TARGET).read_text()
    found = mutants(source)
    with tempfile.TemporaryDirectory(prefix="gbtlab-mutants-") as scratch:
        copies = [_copy(Path(scratch) / str(k)) for k in range(JOBS)]
        probe = subprocess.run([sys.executable, "-c", "import gbtlab.axioms as a; print(a.__file__)"],
            env={**os.environ, "PYTHONPATH": str(copies[0] / "src")}, capture_output=True, text=True)
        if Path(probe.stdout.strip()) != copies[0] / TARGET:
            print(f"the copy's gbtlab is not the one imported: {probe.stdout or probe.stderr}", file=sys.stderr)
            return 2
        outcome, seconds = _run(copies[0], ast.unparse(ast.parse(source)), None)
        timeout = 6 * seconds
        print(f"unmutated: {outcome} in {seconds:.1f} s; timeout per mutant {timeout:.0f} s")
        if outcome != "survived":
            print("the tests do not pass on the unmutated section", file=sys.stderr)
            return 2

        def lane(k):
            """Every JOBS-th mutant from the k-th on, in copy k."""
            return [_run(copies[k], found[m][1], timeout) for m in range(k, len(found), JOBS)]

        results = [None] * len(found)
        with ThreadPoolExecutor(JOBS) as pool:
            for k, outcomes in enumerate(pool.map(lane, range(JOBS))):
                results[k::JOBS] = outcomes
    for (label, _), (outcome, seconds) in zip(found, results):
        print(f"{outcome:9} {seconds:5.1f} s  {label}")
    survivors = [label for (label, _), (outcome, _) in zip(found, results) if outcome == "survived"]
    unproved = [label for label in survivors if label not in EQUIVALENT]
    stale = [label for label in EQUIVALENT if label not in survivors]
    print(f"{len(found)} mutants at {len(found) // 4} sites: {len(found) - len(survivors)} killed "
        f"({sum(outcome == 'timed out' for outcome, _ in results)} by the timeout), "
        f"{len(survivors)} survived, {len(survivors) - len(unproved)} of them listed as equivalent")
    for label in unproved:
        print(f"survivor without a proof of equivalence: {label}", file=sys.stderr)
    for label in stale:
        print(f"listed as equivalent but killed or gone: {label}", file=sys.stderr)
    print(f"mutation gate: {time.perf_counter() - start:.0f} s wall", file=sys.stderr)
    return 1 if unproved or stale else 0


if __name__ == "__main__":
    sys.exit(main())
