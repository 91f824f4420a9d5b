"""Extension graphs and the neutral/connected/acyclic/tree classification."""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import InputError
from .words import FactorSet


class ExtensionGraph:
    """Bipartite graph of one-letter extensions of a factor."""

    def __init__(
        self,
        word: str,
        left: tuple[str, ...],
        right: tuple[str, ...],
        edges: tuple[tuple[str, str], ...],
    ) -> None:
        self.word, self.left, self.right, self.edges = word, left, right, edges

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExtensionGraph) and (
            self.word, self.left, self.right, self.edges
        ) == (other.word, other.left, other.right, other.edges)

    def multiplicity(self) -> int:
        return len(self.edges) - len(self.left) - len(self.right) + 1

    def is_connected(self) -> bool:
        """Connected as an undirected bipartite graph (vacuously for <= 1 vertex)."""
        return len(self.left) + len(self.right) - self._joins <= 1

    def is_acyclic(self) -> bool:
        return self._joins == len(self.edges)

    @cached_property
    def _joins(self) -> int:
        """Edges that join two components, by union-find: each lowers the component
        count by one, and an edge that joins none closes a cycle."""
        root: dict[tuple[int, str], tuple[int, str]] = {}

        def find(v: tuple[int, str]) -> tuple[int, str]:
            while v in root:
                v = root[v]
            return v

        joins = 0
        for a, b in self.edges:
            if (s := find((0, a))) != (t := find((1, b))):
                root[s] = t
                joins += 1
        return joins

    def to_dot(self) -> str:
        lines = ["graph extension {", "  rankdir=LR;"]
        lines.append("  { rank=same; " + " ".join(f'"L_{a}"' for a in self.left) + " }")
        lines.append("  { rank=same; " + " ".join(f'"R_{b}"' for b in self.right) + " }")
        for a in self.left:
            lines.append(f'  "L_{a}" [label="{a}"];')
        for b in self.right:
            lines.append(f'  "R_{b}" [label="{b}"];')
        for a, b in self.edges:
            lines.append(f'  "L_{a}" -- "R_{b}";')
        lines.append("}")
        return "\n".join(lines)


def _extensions(
    factors: frozenset[str], letters: tuple[str, ...], w: str
) -> tuple[list[str], list[str], list[tuple[str, str]]]:
    """Left letters, right letters and the pairs of them that extend ``w`` to a factor."""
    left = [a for a in letters if a + w in factors]
    right = [b for b in letters if w + b in factors]
    return left, right, [(a, b) for a in left for b in right if a + w + b in factors]


def extension_graph(F: FactorSet, w: str) -> ExtensionGraph:
    """Left/right letter extensions of ``w`` in ``F`` and their pairings."""
    needed = len(w) + 2
    F.certify(needed, f"extension graph of a length-{len(w)} word needs horizon {needed}", w)
    return ExtensionGraph(w, *map(tuple, _extensions(F.factors, F.alphabet.letters, w)))


def multiplicity(F: FactorSet, w: str) -> int:
    return extension_graph(F, w).multiplicity()


class WordRecord(NamedTuple):
    word: str
    multiplicity: int
    connected: bool
    acyclic: bool


class Classification(NamedTuple):
    """Per-word extension-graph verdicts up to a length bound."""

    max_length: int
    records: tuple[WordRecord, ...]

    @property
    def neutral(self) -> bool:
        return all(r.multiplicity == 0 for r in self.records)

    @property
    def connected(self) -> bool:
        return all(r.connected for r in self.records)

    @property
    def acyclic(self) -> bool:
        return all(r.acyclic for r in self.records)

    @property
    def tree(self) -> bool:
        return self.connected and self.acyclic

    def record_for(self, w: str) -> WordRecord:
        for r in self.records:
            if r.word == w:
                return r
        raise KeyError(w)


def classify(F: FactorSet, max_length: int) -> Classification:
    """Classify every factor of length <= ``max_length``, empty word included.

    Only a bispecial factor can break the tree property (Berthé et al.,
    "Acyclic, connected and tree sets", Monatsh. Math. 176, 2015).  Each word's
    extensions are scanned once.  When one side of w has a single letter, the
    graph is a star less its missing edges: acyclic, and connected iff its
    multiplicity is 0, so the record is read off the counts; every other word
    gets its graph from the same scan.
    """
    if max_length < 0:
        raise InputError(f"classify({max_length}) of a negative length")
    needed = max_length + 2
    F.certify(needed, f"classification up to length {max_length} needs horizon {needed}")
    factors, letters = F.factors, F.alphabet.letters
    records = []
    for n in range(max_length + 1):
        for w in F.words_of_length(n):
            left, right, edges = _extensions(factors, letters, w)
            if len(left) == 1 or len(right) == 1:
                m = len(edges) - len(left) - len(right) + 1
                records.append(WordRecord(w, m, m == 0, True))
                continue
            g = ExtensionGraph(w, tuple(left), tuple(right), tuple(edges))
            records.append(WordRecord(w, g.multiplicity(), g.is_connected(), g.is_acyclic()))
    return Classification(max_length, tuple(records))
