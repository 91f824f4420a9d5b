"""Extension graphs and the neutral/connected/acyclic/tree classification."""

from __future__ import annotations

from collections import Counter
from functools import cached_property, partial
from operator import itemgetter
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


def _extensions(F: FactorSet, w: str) -> ExtensionGraph:
    """The graph of ``w`` read off levels |w| + 1 and |w| + 2, in their order: the alphabet's."""
    upper, top = F.words_of_length(len(w) + 1), F.words_of_length(len(w) + 2)
    left = tuple(u[0] for u in upper if u[1:] == w)
    right = tuple(u[-1] for u in upper if u[:-1] == w)
    return ExtensionGraph(w, left, right, tuple((u[0], u[-1]) for u in top if u[1:-1] == w))


def extension_graph(F: FactorSet, w: str) -> ExtensionGraph:
    """Left/right letter extensions of ``w`` in ``F`` and their pairings."""
    needed = len(w) + 2
    F.certify(needed, f"extension graph of a length-{len(w)} word needs horizon {needed}", w)
    return _extensions(F, w)


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
    "Acyclic, connected and tree sets", Monatsh. Math. 176, 2015).  For each
    length n, level n + 1 is counted by tail (left letters) and by head (right
    letters), and level n + 2 by middle (edges).  When one side of w has a
    single letter, the graph is a star less its missing edges: acyclic, and
    connected iff its multiplicity is 0, so the record is read off the counts;
    every other word gets its graph from the same two levels.
    """
    if max_length < 0:
        raise InputError(f"classify({max_length}) of a negative length")
    needed = max_length + 2
    F.certify(needed, f"classification up to length {max_length} needs horizon {needed}")
    tail, middle = itemgetter(slice(1, None)), itemgetter(slice(1, -1))
    head = itemgetter(slice(None, -1))
    upper, top = F.words_of_length(1), F.words_of_length(2)
    # tuple.__new__ builds a WordRecord at half the cost of the named tuple's own __new__
    record, records = partial(tuple.__new__, WordRecord), []
    for n in range(max_length + 1):
        lefts, rights = Counter(map(tail, upper)), Counter(map(head, upper))
        edges = Counter(map(middle, top))
        for w in F.words_of_length(n):
            left, right = lefts[w], rights[w]
            if left == 1 or right == 1:
                m = edges[w] - left - right + 1
                records.append(record((w, m, m == 0, True)))
            else:
                g = _extensions(F, w)
                records.append(record((w, g.multiplicity(), g.is_connected(), g.is_acyclic())))
        upper, top = top, F.words_of_length(n + 3)
    return Classification(max_length, tuple(records))
