"""Implication lattice between the nine axioms, computed by sweep.

For every ordered axiom pair (P, Q) the sweep either verifies P ⟹ Q on
all canonical spaces in scope or refutes it with the canonical key of
the first countering space.  The DOT rendering shows verified edges
solid and, dashed, the refuted converses of verified implications; the
JSON report carries the full partition of all ordered pairs.

The sweep reads the verdict words of ``mining.verdict_words`` over each
level's canonical index pairs, streamed, and keeps, per distinct word, the
``canonical_index_key`` of the first space that has it; the first
countering space of (P, Q) is the first of those spaces whose word
breaks the link P ⟹ Q: it has P's bit and lacks Q's.  No space is built.
``axiom_profile`` and ``canonical_key`` are the oracles the tests hold
the words and keys to.
"""

from __future__ import annotations

from itertools import permutations, tee

from .axioms import AXIOM_BITS, AXIOM_NAMES
from .enumeration import canonical_index_key, canonical_pair_indices, check_size
from .mining import verdict_words
from .records import Record


class LatticeReport(Record):
    _fields = ("n", "nodes", "edges", "counter_edges")

    def __init__(
        self,
        n: int,
        nodes: tuple[str, ...],
        edges: list[tuple[str, str]],
        counter_edges: list[tuple[str, str, str]],
    ) -> None:
        self._fill(n, nodes, edges, counter_edges)

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
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    check_size(n)
    # the canonical spaces' verdict words, each with the key of its first space
    first_keys: dict[int, bytes] = {}
    for level in range(1, n + 1):
        pairs, copy = tee(canonical_pair_indices(level))
        for (i, j), word in zip(pairs, verdict_words(level, copy)):
            if word not in first_keys:
                first_keys[word] = canonical_index_key(level, i, j)

    edges, counter_edges = [], []
    for src, dst in permutations(AXIOM_NAMES, 2):
        p, q = AXIOM_BITS[src], AXIOM_BITS[dst]
        witness = next((key.hex() for word, key in first_keys.items() if word & p and not word & q), None)
        if witness is None:
            edges.append((src, dst))
        else:
            counter_edges.append((src, dst, witness))
    return LatticeReport(n, AXIOM_NAMES, edges, counter_edges)
