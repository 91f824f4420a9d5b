"""Extension graphs and the neutral/connected/acyclic/tree classification."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .words import FactorSet


@dataclass(frozen=True)
class ExtensionGraph:
    """Bipartite graph of one-letter extensions of a factor."""

    word: str
    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def multiplicity(self) -> int:
        return len(self.edges) - len(self.left) - len(self.right) + 1

    def is_connected(self) -> bool:
        """Connected as an undirected bipartite graph (vacuously for <= 1 vertex)."""
        return self._component_count <= 1

    def is_acyclic(self) -> bool:
        # a bipartite multigraph-free graph is acyclic iff every connected
        # component has edges = vertices - 1; equivalently edges = vertices - c
        vertices = len(self.left) + len(self.right)
        return len(self.edges) == vertices - self._component_count

    @cached_property
    def _component_count(self) -> int:
        nodes = [("L", a) for a in self.left] + [("R", b) for b in self.right]
        adj: dict[tuple[str, str], list[tuple[str, str]]] = {v: [] for v in nodes}
        for a, b in self.edges:
            adj[("L", a)].append(("R", b))
            adj[("R", b)].append(("L", a))
        seen: set[tuple[str, str]] = set()
        count = 0
        for v in nodes:
            if v in seen:
                continue
            count += 1
            seen.add(v)
            stack = [v]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return count

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


def extension_graph(F: FactorSet, w: str) -> ExtensionGraph:
    """Left/right letter extensions of ``w`` in ``F`` and their pairings."""
    needed = len(w) + 2
    F.certify(needed, f"extension graph of a length-{len(w)} word needs horizon {needed}", w)
    letters = F.alphabet.letters
    left = tuple(a for a in letters if a + w in F)
    right = tuple(b for b in letters if w + b in F)
    edges = tuple((a, b) for a in left for b in right if a + w + b in F)
    return ExtensionGraph(w, left, right, edges)


def multiplicity(F: FactorSet, w: str) -> int:
    return extension_graph(F, w).multiplicity()


@dataclass(frozen=True)
class WordRecord:
    word: str
    multiplicity: int
    connected: bool
    acyclic: bool


@dataclass(frozen=True)
class Classification:
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
    "Acyclic, connected and tree sets", Monatsh. Math. 176, 2015).  When one
    side of w has a single letter and it pairs with every extension on the
    other side, the graph is a star, of multiplicity 0, connected and
    acyclic, so no graph is built; every other word gets its graph.
    """
    if max_length < 0:
        raise InputError(f"classify({max_length}) of a negative length")
    needed = max_length + 2
    F.certify(needed, f"classification up to length {max_length} needs horizon {needed}")
    factors, letters = F.factors, F.alphabet.letters
    records = []
    for n in range(max_length + 1):
        for w in F.words_of_length(n):
            left = [a for a in letters if a + w in factors]
            right = [b for b in letters if w + b in factors]
            if len(left) == 1:
                star = all(left[0] + w + b in factors for b in right)
            else:
                star = len(right) == 1 and all(a + w + right[0] in factors for a in left)
            if star:
                records.append(WordRecord(w, 0, True, True))
                continue
            g = extension_graph(F, w)
            records.append(WordRecord(w, g.multiplicity(), g.is_connected(), g.is_acyclic()))
    return Classification(max_length, tuple(records))
