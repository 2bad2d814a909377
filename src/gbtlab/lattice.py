"""Implication lattice between the nine axioms, computed by sweep.

For every ordered axiom pair (P, Q) the sweep either verifies P ⟹ Q on
all canonical spaces in scope or refutes it with the canonical key of
the first countering space.  The DOT rendering shows verified edges
solid and, dashed, the refuted converses of verified implications; the
JSON report carries the full partition of all ordered pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import AXIOM_NAMES, axiom_profile
from .enumeration import canonical_key, check_size, enumerate_gbt_pairs


@dataclass
class LatticeReport:
    n: int
    nodes: tuple[str, ...]
    edges: list[tuple[str, str]]
    counter_edges: list[tuple[str, str, str]]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "counter_edges": [list(e) for e in self.counter_edges],
        }

    def to_dot(self) -> str:
        verified = set(self.edges)
        lines = [
            "digraph axiom_implications {",
            f'  label="axiom implications verified on all spaces up to {self.n} points";',
            "  rankdir=BT;",
        ]
        for node in self.nodes:
            lines.append(f"  {node};")
        for src, dst in self.edges:
            lines.append(f"  {src} -> {dst};")
        for src, dst, witness in self.counter_edges:
            if (dst, src) in verified:
                lines.append(
                    f'  {src} -> {dst} [style=dashed, color=red, label="counterexample {witness}"];'
                )
        lines.append("}")
        return "\n".join(lines) + "\n"


def implication_lattice(n: int) -> LatticeReport:
    """Partition all ordered axiom pairs into verified and refuted implications."""
    check_size(n)
    profiles: list[tuple[dict[str, bool], str]] = []
    for level in range(1, n + 1):
        for space in enumerate_gbt_pairs(level):
            profiles.append((axiom_profile(space).as_dict(), canonical_key(space).hex()))

    edges = []
    counter_edges = []
    for src in AXIOM_NAMES:
        for dst in AXIOM_NAMES:
            if src == dst:
                continue
            witness = next(
                (key for verdicts, key in profiles if verdicts[src] and not verdicts[dst]),
                None,
            )
            if witness is None:
                edges.append((src, dst))
            else:
                counter_edges.append((src, dst, witness))
    return LatticeReport(n, AXIOM_NAMES, edges, counter_edges)
