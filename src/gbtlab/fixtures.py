"""Benchmark corpus of small spaces with known predicate verdicts.

Each fixture is a space plus a list of assertions: the verdict an
authoritative worked example states for a predicate on that space.  The
spaces are the shipped space files ``fixtures/<id>.json``; the
assertions live here.  The claims runner recomputes every verdict with
the engine and reports any disagreement as a fixture mismatch rather
than silently trusting either side.  Fixture e14 is expected to mismatch
on two of its g-closedness assertions; the recorded expectation file
pins that down.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .gbt import GbtSpace
from .spacefile import parse_space_file


@dataclass(frozen=True)
class Assertion:
    predicate: str
    args: tuple[tuple[str, object], ...]
    expected: object

    def arg(self, key: str, default=None):
        return dict(self.args).get(key, default)

    def describe(self) -> str:
        parts = [self.predicate]
        for key, value in self.args:
            parts.append(f"{key}={value}")
        return " ".join(parts)


def _a(predicate: str, expected: object, **args) -> Assertion:
    return Assertion(predicate, tuple(sorted(args.items())), expected)


@dataclass(frozen=True)
class Fixture:
    id: str
    assertions: tuple[Assertion, ...]

    def space(self) -> GbtSpace:
        return _fixture_space(self.id)


@lru_cache(maxsize=None)
def _fixture_space(fixture_id: str) -> GbtSpace:
    text = resources.files("gbtlab").joinpath(f"fixtures/{fixture_id}.json").read_text(encoding="utf-8")
    space, _ = parse_space_file(text)
    return space


FIXTURES: tuple[Fixture, ...] = (
    Fixture(
        "e11",
        (
            _a("g-closed-wrt", True, side=1, set=("a",)),
            _a("mu-closed", False, side=1, set=("a",)),
            _a("g-closed-wrt", True, side=2, set=("b", "c")),
            _a("mu-closed", False, side=2, set=("b", "c")),
            _a("T0", True),
            _a("T1_2", False),
        ),
    ),
    Fixture(
        "e13",
        (
            _a("closure-equals", ("b", "c"), side=1, set=("b",)),
            _a("gap-has-no-closed", True, side=1, set=("b",)),
            _a("g-closed-wrt", False, side=1, set=("b",)),
        ),
    ),
    Fixture(
        "e14",
        (
            _a("g-closed-wrt", True, side=1, set=("a", "d")),
            _a("g-closed-wrt", True, side=1, set=("c", "d")),
            _a("g-closed-wrt", False, side=1, set=("d",)),
            _a("g-closed-wrt", False, side=1, set=("a", "c", "d")),
        ),
    ),
    Fixture(
        "e17",
        (
            _a("T0", True),
            _a("T1", False),
            _a("gt-T0", False, side=1),
            _a("gt-T0", False, side=2),
            _a("pairwise-lambda-closed", True, set=("c",)),
            _a("wedge12-set", False, set=("c",)),
            _a("pairwise-lambda-closed", False, set=("a", "b")),
            _a("T1_4", False),
        ),
    ),
    Fixture(
        "e22",
        (
            _a("singletons-closed-somewhere", True),
            _a("T1", False),
        ),
    ),
    Fixture(
        "e25",
        (
            _a("T1", True),
            _a("gt-T1", False, side=1),
            _a("gt-T1", False, side=2),
        ),
    ),
    Fixture(
        "e26",
        (
            _a("gt-T1", True, side=1),
            _a("T1", False),
        ),
    ),
    Fixture(
        "e31",
        (
            _a("singletons-open-or-closed", True, open_side=1, closed_side=2),
            _a("g-closed-wrt", True, side=2, set=("b", "c", "d")),
            _a("mu-closed", False, side=2, set=("b", "c", "d")),
            _a("T1_2", False),
        ),
    ),
    Fixture(
        "e35",
        (
            _a("singletons-four-kind", True),
            _a("g-closed-wrt", True, side=2, set=("b",)),
            _a("mu-closed", False, side=2, set=("b",)),
            _a("g-closed-wrt", True, side=1, set=("a", "c")),
            _a("mu-closed", False, side=1, set=("a", "c")),
            _a("T1_2", False),
            _a("T1", True),
            _a("T5_8", True),
            _a("R0", False),
        ),
    ),
    Fixture(
        "e36",
        (
            _a("T1_2", True),
            _a("T1", False),
        ),
    ),
    Fixture(
        "e39",
        (
            _a("lambda-closed-wrt", True, side=1, set=("b",)),
            _a("wedge-set", False, side=2, set=("b",)),
            _a("mu-closed", False, side=1, set=("b",)),
        ),
    ),
    Fixture(
        "e43a",
        (
            _a("g-closed-wrt", True, side=1, set=("c",)),
            _a("lambda-closed-wrt", False, side=1, set=("c",)),
            _a("g-closed-wrt", True, side=2, set=("b",)),
            _a("lambda-closed-wrt", False, side=2, set=("b",)),
        ),
    ),
    Fixture(
        "e43b",
        (
            _a("lambda-closed-wrt", True, side=2, set=("a",)),
            _a("g-closed-wrt", False, side=2, set=("a",)),
            _a("lambda-closed-wrt", True, side=1, set=("b",)),
            _a("g-closed-wrt", False, side=1, set=("b",)),
        ),
    ),
    Fixture(
        "e46a",
        (
            _a("lambda-closed-wrt", False, side=1, set=("a",)),
            _a("lambda-closed-wrt", False, side=2, set=("a",)),
            _a("pairwise-lambda-closed", True, set=("a",)),
        ),
    ),
    Fixture(
        "e46b",
        (
            _a("lambda-closed-wrt", True, side=2, set=("a",)),
            _a("lambda-closed-wrt", True, side=2, set=("d",)),
            _a("lambda-closed-wrt", False, side=2, set=("a", "d")),
            _a("pairwise-lambda-closed", True, set=("a",)),
            _a("pairwise-lambda-closed", True, set=("d",)),
            _a("pairwise-lambda-closed", False, set=("a", "d")),
        ),
    ),
)

FIXTURE_IDS = tuple(f.id for f in FIXTURES)


def get_fixture(fixture_id: str) -> Fixture:
    for fixture in FIXTURES:
        if fixture.id == fixture_id.lower():
            return fixture
    raise KeyError(f"unknown fixture {fixture_id!r}; known: {', '.join(FIXTURE_IDS)}")
