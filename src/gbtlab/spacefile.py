"""JSON space files.

Schema: {"points": [str...], "mu1": [[str...]...], "mu2": [[str...]...]}.
Subsets are label lists, mirroring blackboard notation;
the empty set may be omitted from either family and is implied.  Writing
normalizes to ascending mask order with the empty set dropped, so
parse(write(s)) is the identity and write(parse(text)) only reorders.
"""

from __future__ import annotations

import json

from .gbt import GbtSpace
from .gt import GeneralizedTopology, complete_unions, validate_gt
from .sets import GroundSetError, ground, parse_subset

SCHEMA_KEYS = ("points", "mu1", "mu2")


class SpaceFileError(ValueError):
    """Space file violates the schema."""


def space_to_data(s: GbtSpace) -> dict:
    def family(t: GeneralizedTopology) -> list[list[str]]:
        return [list(s.ground.labels(m)) for m in t.opens if m]

    return {"points": list(s.ground.names), "mu1": family(s.mu1), "mu2": family(s.mu2)}


def _family_from_data(g, raw, key: str) -> list[int]:
    """Open masks of one family, ∅ included."""
    if not isinstance(raw, list) or any(not isinstance(sub, list) for sub in raw):
        raise SpaceFileError(f"{key!r} must be a list of label lists")
    try:
        return [0, *(parse_subset(sub, g).bits for sub in raw)]
    except GroundSetError as exc:
        raise SpaceFileError(f"bad subset in {key!r}: {exc}") from exc


def data_to_space(data, complete: bool = False) -> tuple[GbtSpace, dict[str, tuple[int, ...]]]:
    """Space from schema data; with ``complete``, missing unions are added.

    Returns the space and, per family key, the masks the completion added
    (empty tuples when nothing was added).
    """
    if not isinstance(data, dict):
        raise SpaceFileError("top level must be a JSON object")
    unknown = set(data) - set(SCHEMA_KEYS)
    if unknown:
        raise SpaceFileError(f"unknown keys: {sorted(unknown)}")
    missing = [k for k in SCHEMA_KEYS if k not in data]
    if missing:
        raise SpaceFileError(f"missing keys: {missing}")
    points = data["points"]
    if not isinstance(points, list) or any(not isinstance(p, str) for p in points):
        raise SpaceFileError("'points' must be a list of strings")
    try:
        g = ground(points)
    except GroundSetError as exc:
        raise SpaceFileError(str(exc)) from exc

    topologies = {}
    added = {}
    for key in ("mu1", "mu2"):
        family = _family_from_data(g, data[key], key)
        if complete:
            topology, extra = complete_unions(g, family)
            added[key] = extra
        else:
            topology = validate_gt(g, family)
            added[key] = ()
        topologies[key] = topology
    return GbtSpace(g, topologies["mu1"], topologies["mu2"]), added


def parse_space_file(text: str, complete: bool = False) -> tuple[GbtSpace, dict[str, tuple[int, ...]]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpaceFileError(f"not valid JSON: {exc}") from exc
    return data_to_space(data, complete=complete)


def load_space(path, complete: bool = False) -> tuple[GbtSpace, dict[str, tuple[int, ...]]]:
    with open(path, encoding="utf-8") as handle:
        return parse_space_file(handle.read(), complete=complete)


def write_space_file(s: GbtSpace) -> str:
    return json.dumps(space_to_data(s), indent=2) + "\n"
